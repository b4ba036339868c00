(* Tests for the deterministic virtual-time simulator and the
   deterministic experiment suite.  Because everything is a pure
   function of the scripts, the paper's concurrency claims become exact
   assertions here, not statistical trends. *)

module Q = Adt.Fifo_queue
module A = Adt.Account
module DQ = Sim.Det_sim.Make (Q)
module DA = Sim.Det_sim.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- simulator mechanics ---------------- *)

let enq_script txns ops w =
  List.init txns (fun k -> List.init ops (fun j -> Q.Enq (1 + ((w + k + j) mod 2))))

let test_single_worker_baseline () =
  (* One worker, no contention: makespan = txns * ops * think exactly. *)
  let r = DQ.run ~conflict:Q.conflict_hybrid [| enq_script 5 3 0 |] in
  check_int "committed" 5 r.DQ.committed;
  check_int "conflicts" 0 r.DQ.conflicts;
  check_int "makespan" (5 * 3 * 100) r.DQ.makespan;
  Alcotest.(check (float 0.001)) "serial concurrency" 1.0 (DQ.concurrency r)

let test_perfect_overlap () =
  (* Conflict-free workload on N workers: same makespan as one worker. *)
  let scripts = Array.init 4 (enq_script 5 3) in
  let r = DQ.run ~conflict:Q.conflict_hybrid scripts in
  check_int "committed" 20 r.DQ.committed;
  check_int "makespan equals single worker" (5 * 3 * 100) r.DQ.makespan;
  Alcotest.(check (float 0.001)) "perfect concurrency" 4.0 (DQ.concurrency r)

let test_full_serialization () =
  (* Everything conflicts: makespan at least workers x serial time. *)
  let scripts = Array.init 4 (enq_script 5 3) in
  let r = DQ.run ~conflict:Q.conflict_rw scripts in
  check_int "committed" 20 r.DQ.committed;
  check_bool "serialized" true (r.DQ.makespan >= 4 * 5 * 3 * 100);
  check_bool "conflicts observed" true (r.DQ.conflicts > 0)

let test_determinism () =
  let scripts = Array.init 3 (enq_script 7 4) in
  let r1 = DQ.run ~conflict:Q.conflict_fig_4_3 scripts in
  let r2 = DQ.run ~conflict:Q.conflict_fig_4_3 scripts in
  check_bool "identical results" true (r1 = r2)

let test_prefill () =
  (* Consumers over a prefilled queue: all dequeues succeed. *)
  let prefill = List.init 30 (fun k -> Q.Enq (1 + (k mod 2))) in
  let scripts = Array.init 2 (fun _ -> List.init 5 (fun _ -> [ Q.Deq; Q.Deq ])) in
  let r = DQ.run ~prefill ~conflict:Q.conflict_hybrid scripts in
  check_int "all committed" 10 r.DQ.committed

let test_blocked_progress_failure () =
  (* A consumer over an empty queue can never finish. *)
  let scripts = [| [ [ Q.Deq ] ] |] in
  check_bool "fails with no progress" true
    (try
       ignore (DQ.run ~conflict:Q.conflict_hybrid scripts);
       false
     with Failure _ -> true)

let test_wait_die_in_sim () =
  (* Two workers with crossing enq values under fig 4-3 deadlock without
     wait-die; the simulation must complete. *)
  let scripts =
    [|
      List.init 5 (fun _ -> [ Q.Enq 1; Q.Enq 2 ]);
      List.init 5 (fun _ -> [ Q.Enq 2; Q.Enq 1 ]);
    |]
  in
  let r = DQ.run ~conflict:Q.conflict_fig_4_3 scripts in
  check_int "completes" 10 r.DQ.committed;
  check_bool "restarts happened" true (r.DQ.restarts > 0)

let test_account_correctness_under_sim () =
  (* The simulated final state equals the serial sum regardless of the
     interleaving the simulator chose. *)
  let scripts =
    Array.init 3 (fun w ->
        List.init 10 (fun k -> [ A.Credit (1 + ((w + k) mod 5)) ]))
  in
  let r = DA.run ~conflict:A.conflict_hybrid scripts in
  check_int "all committed" 30 r.DA.committed;
  check_bool "no conflicts between credits" true (r.DA.conflicts = 0)

(* The blocked wait, deterministically: the consumer's Deq finds the
   queue empty and parks; the producer's transaction commits at virtual
   time T = 300, and its release wakes the consumer at once, so the
   consumer's transaction commits at T plus its think time — the
   1 ms backstop never fires. *)
let test_blocked_wake () =
  let s0 = Runtime.Sched.stats () in
  let r = DQ.run ~conflict:Q.conflict_hybrid [| [ [ Q.Deq ] ]; [ [ Q.Enq 1; Q.Enq 2; Q.Enq 3 ] ] |] in
  let s1 = Runtime.Sched.stats () in
  check_int "both committed" 2 r.DQ.committed;
  check_bool "the consumer was blocked" true (r.DQ.blocked > 0);
  check_int "the consumer commits at T + think" (300 + 100) r.DQ.makespan;
  check_int "no backstop timeout" 0 (s1.Runtime.Sched.timeouts - s0.Runtime.Sched.timeouts);
  check_int "result counts none either" 0 r.DQ.timeouts

(* ---------------- the paper's claims as exact assertions ------------- *)

let test_det_queue_enq_claims () =
  let t = Sim.Det_experiments.det_queue_enq () in
  match t.Sim.Det_experiments.rows with
  | [ hybrid; fig43; rw ] ->
    check_int "hybrid zero conflicts" 0 hybrid.Sim.Det_experiments.conflicts;
    Alcotest.(check (float 0.001))
      "hybrid perfect concurrency" 4.0 hybrid.Sim.Det_experiments.concurrency;
    check_bool "hybrid strictly fastest" true
      (hybrid.Sim.Det_experiments.makespan < fig43.Sim.Det_experiments.makespan
      && hybrid.Sim.Det_experiments.makespan < rw.Sim.Det_experiments.makespan);
    check_bool "hybrid at least 3x faster" true
      (3 * hybrid.Sim.Det_experiments.makespan <= fig43.Sim.Det_experiments.makespan)
  | _ -> Alcotest.fail "three rows expected"

let test_det_queue_mixed_claims () =
  let t = Sim.Det_experiments.det_queue_mixed () in
  match t.Sim.Det_experiments.rows with
  | [ hybrid42; fig43; rw ] ->
    (* incomparability: the mixed workload reverses the enq-only order *)
    check_bool "fig 4-3 beats fig 4-2 here" true
      (fig43.Sim.Det_experiments.makespan < hybrid42.Sim.Det_experiments.makespan);
    check_bool "both beat RW" true
      (hybrid42.Sim.Det_experiments.makespan < rw.Sim.Det_experiments.makespan)
  | _ -> Alcotest.fail "three rows expected"

let test_det_account_claims () =
  let t = Sim.Det_experiments.det_account () in
  match t.Sim.Det_experiments.rows with
  | [ hybrid; commut; rw ] ->
    check_bool "hybrid beats commutativity" true
      (hybrid.Sim.Det_experiments.makespan < commut.Sim.Det_experiments.makespan);
    check_bool "commutativity beats RW" true
      (commut.Sim.Det_experiments.makespan < rw.Sim.Det_experiments.makespan);
    check_bool "hybrid fewer conflicts" true
      (hybrid.Sim.Det_experiments.conflicts < commut.Sim.Det_experiments.conflicts)
  | _ -> Alcotest.fail "three rows expected"

let test_det_semiqueue_claims () =
  let t = Sim.Det_experiments.det_semiqueue () in
  match t.Sim.Det_experiments.rows with
  | [ semi; q42; q43 ] ->
    check_int "semiqueue zero conflicts" 0 semi.Sim.Det_experiments.conflicts;
    Alcotest.(check (float 0.001))
      "semiqueue perfect concurrency" 4.0 semi.Sim.Det_experiments.concurrency;
    check_bool "semiqueue fastest" true
      (semi.Sim.Det_experiments.makespan < q42.Sim.Det_experiments.makespan
      && semi.Sim.Det_experiments.makespan < q43.Sim.Det_experiments.makespan)
  | _ -> Alcotest.fail "three rows expected"

(* DESIGN §10: a transaction dies at most once per older transaction
   live when it began, so with [workers] workers at most [workers - 1]
   times. *)
let test_death_bound () =
  let bound = Sim.Det_experiments.workers - 1 in
  List.iter
    (fun (t : Sim.Det_experiments.table) ->
      List.iter
        (fun (r : Sim.Det_experiments.row) ->
          check_bool
            (Printf.sprintf "%s / %s: %d restarts <= %d" t.id r.label r.max_restarts bound)
            true (r.max_restarts <= bound))
        t.rows)
    (Sim.Det_experiments.all ())

let test_det_reproducibility () =
  let t1 = Sim.Det_experiments.all () in
  let t2 = Sim.Det_experiments.all () in
  check_bool "all tables identical across runs" true (t1 = t2)

let () =
  Alcotest.run "det_sim"
    [
      ( "mechanics",
        [
          Alcotest.test_case "single-worker baseline" `Quick test_single_worker_baseline;
          Alcotest.test_case "perfect overlap" `Quick test_perfect_overlap;
          Alcotest.test_case "full serialization" `Quick test_full_serialization;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "prefill" `Quick test_prefill;
          Alcotest.test_case "no-progress detection" `Quick test_blocked_progress_failure;
          Alcotest.test_case "wait-die resolves deadlock" `Quick test_wait_die_in_sim;
          Alcotest.test_case "account correctness" `Quick
            test_account_correctness_under_sim;
          Alcotest.test_case "blocked consumer woken by a commit" `Quick test_blocked_wake;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "queue enqueue-only" `Quick test_det_queue_enq_claims;
          Alcotest.test_case "queue mixed (incomparability)" `Quick
            test_det_queue_mixed_claims;
          Alcotest.test_case "account" `Quick test_det_account_claims;
          Alcotest.test_case "semiqueue" `Quick test_det_semiqueue_claims;
          Alcotest.test_case "deaths per transaction bounded" `Quick test_death_bound;
          Alcotest.test_case "exact reproducibility" `Quick test_det_reproducibility;
        ] );
    ]
