(* Tests for the simulation library: the deterministic conflict profile
   and the concurrent workload driver (run at a small scale).  The
   timing-sensitive claims are asserted loosely: counts, not wall
   clock. *)

module Qprof = Sim.Conflict_profile.Make (Adt.Fifo_queue)
module Aprof = Sim.Conflict_profile.Make (Adt.Account)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------- conflict profile ---------------- *)

let enq_only (i, _) = match i with Adt.Fifo_queue.Enq _ -> 1. | Adt.Fifo_queue.Deq -> 0.

let test_profile_enq_only () =
  (* Under fig 4-2, enqueues never conflict. *)
  check_float "hybrid 0" 0.
    (Qprof.op_conflict_probability ~weights:enq_only Adt.Fifo_queue.conflict_hybrid);
  (* Under fig 4-3, Enq v conflicts with Enq v' iff v <> v': probability
     1/2 over the two-value universe. *)
  check_float "fig 4-3 half" 0.5
    (Qprof.op_conflict_probability ~weights:enq_only Adt.Fifo_queue.conflict_fig_4_3);
  (* Under 2PL-RW everything conflicts. *)
  check_float "rw 1" 1.
    (Qprof.op_conflict_probability ~weights:enq_only Adt.Fifo_queue.conflict_rw)

let test_profile_ordering_account () =
  let p_hybrid =
    Aprof.op_conflict_probability ~weights:Aprof.uniform Adt.Account.conflict_hybrid
  in
  let p_commut =
    Aprof.op_conflict_probability ~weights:Aprof.uniform
      Adt.Account.conflict_commutativity
  in
  let p_rw =
    Aprof.op_conflict_probability ~weights:Aprof.uniform Adt.Account.conflict_rw
  in
  check_bool "hybrid < commutativity" true (p_hybrid < p_commut);
  check_bool "commutativity < rw" true (p_commut < p_rw);
  check_float "rw = 1" 1. p_rw

let test_profile_ordering_queue () =
  (* Under uniform weights the fig 4-2 and commutativity relations for the
     queue are incomparable (concurrent Deqs conflict under fig 4-2 but not
     under commutativity, and vice versa for Enq-before-Deq), so the strict
     ordering only emerges for an enqueue-heavy mix.  3:1 Enq:Deq gives
     hybrid 0.219 < commutativity 0.3125 < rw 1. *)
  let weights (i, _) =
    match i with Adt.Fifo_queue.Enq _ -> 3. | Adt.Fifo_queue.Deq -> 1.
  in
  let p_hybrid =
    Qprof.op_conflict_probability ~weights Adt.Fifo_queue.conflict_hybrid
  in
  let p_commut =
    Qprof.op_conflict_probability ~weights Adt.Fifo_queue.conflict_commutativity
  in
  let p_rw = Qprof.op_conflict_probability ~weights Adt.Fifo_queue.conflict_rw in
  check_bool "hybrid < commutativity" true (p_hybrid < p_commut);
  check_bool "commutativity < rw" true (p_commut < p_rw);
  check_float "rw = 1" 1. p_rw

let test_profile_txn_monotone_in_len () =
  let weights _ = 1. in
  let p1 =
    Aprof.txn_conflict_probability ~weights ~len:1 Adt.Account.conflict_hybrid
  in
  let p3 =
    Aprof.txn_conflict_probability ~weights ~len:3 Adt.Account.conflict_hybrid
  in
  check_bool "longer transactions conflict more" true (p1 < p3);
  check_bool "probability" true (p3 >= 0. && p3 <= 1.)

let test_profile_zero_weights_rejected () =
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Conflict_profile: weights sum to zero") (fun () ->
      ignore
        (Qprof.op_conflict_probability ~weights:(fun _ -> 0.)
           Adt.Fifo_queue.conflict_hybrid))

(* ---------------- driver ---------------- *)

let test_driver_runs_all_txns () =
  let mgr = Runtime.Manager.create () in
  let counter = Atomic.make 0 in
  let scale = { Sim.Driver.domains = 3; txns = 7; think_us = 0. } in
  let result =
    Sim.Driver.run scale ~mgr (fun ~domain:_ ~seq:_ _txn -> Atomic.incr counter)
  in
  Alcotest.(check int) "bodies executed" 21 (Atomic.get counter);
  Alcotest.(check int) "all committed" 21 result.Sim.Driver.committed;
  check_bool "throughput positive" true (result.Sim.Driver.throughput > 0.)

let test_driver_passes_indices () =
  let mgr = Runtime.Manager.create () in
  let seen = Array.make 2 (-1) in
  let scale = { Sim.Driver.domains = 2; txns = 3; think_us = 0. } in
  ignore
    (Sim.Driver.run scale ~mgr (fun ~domain ~seq _txn ->
         if seq = 2 then seen.(domain) <- seq));
  Alcotest.(check (array int)) "last seq seen per domain" [| 2; 2 |] seen

(* ---------------- experiments (quick scale) ---------------- *)

let quick = { Sim.Driver.domains = 2; txns = 12; think_us = 5. }

let find_row t label =
  List.find
    (fun r -> Astring_contains.contains r.Sim.Experiments.label label)
    t.Sim.Experiments.rows

let test_exp_queue_enq_shape () =
  let t = Sim.Experiments.run ~scale:quick Sim.Workload.queue_enq in
  Alcotest.(check int) "three rows" 3 (List.length t.Sim.Experiments.rows);
  let hybrid = find_row t "hybrid" in
  (* the paper's claim: enqueues never conflict under fig 4-2 *)
  Alcotest.(check int) "hybrid conflicts" 0 hybrid.Sim.Experiments.op_conflicts;
  check_float "hybrid P(conflict)" 0. hybrid.Sim.Experiments.conflict_prob;
  List.iter
    (fun r ->
      Alcotest.(check int)
        ("committed: " ^ r.Sim.Experiments.label)
        (quick.Sim.Driver.domains * quick.Sim.Driver.txns)
        r.Sim.Experiments.committed)
    t.Sim.Experiments.rows

let test_exp_account_shape () =
  let t = Sim.Experiments.run ~scale:quick Sim.Workload.account in
  let hybrid = find_row t "hybrid" in
  let commut = find_row t "commutativity" in
  let rw = find_row t "read/write" in
  check_bool "P(conflict) ordering" true
    (hybrid.Sim.Experiments.conflict_prob < commut.Sim.Experiments.conflict_prob
    && commut.Sim.Experiments.conflict_prob < rw.Sim.Experiments.conflict_prob)

let test_exp_semiqueue_shape () =
  let t = Sim.Experiments.run ~scale:quick Sim.Workload.semiqueue in
  let semi = find_row t "SemiQueue" in
  Alcotest.(check int) "semiqueue conflicts 0" 0 semi.Sim.Experiments.op_conflicts

(* Each integer [Post p] multiplies the balance by [1 + p], so EXP-ACCOUNT
   must bound its Posts at every scale: even with every credit landing
   before the first Post, the opening balance plus all credits, times
   every Post's factor, stays a native int at 16 workers x 10,000 txns. *)
let test_account_posts_bounded () =
  let s = Sim.Workload.account_script and workers = 16 and txns = 10_000 in
  let credits = ref 0 and posts = ref [] in
  let add = function
    | Adt.Account.Credit n -> credits := !credits + n
    | Adt.Account.Post p -> posts := p :: !posts
    | Adt.Account.Debit _ -> ()
  in
  List.iter add (s.prefill ~workers ~txns);
  for worker = 0 to workers - 1 do
    for k = 0 to txns - 1 do
      List.iter add (s.txn ~seed:0 ~workers ~worker k)
    done
  done;
  Alcotest.(check int) "posts" 9 (List.length !posts);
  let bound =
    List.fold_left
      (fun b p -> if b > max_int / (1 + p) then max_int else b * (1 + p))
      !credits !posts
  in
  check_bool (Printf.sprintf "balance bound %d < max_int" bound) true (bound < max_int)

(* A run that overflows the 65,536-entry trace ring has lost its oldest
   invocations: its verdict must say so rather than replay the holes,
   and it must still count as a violation. *)
let test_wrapped_window_not_replayed () =
  let scale = { Sim.Driver.domains = 1; txns = 6000; think_us = 0. } in
  let t = Sim.Experiments.run ~scale (Sim.Workload.directory ()) in
  let r = List.hd t.Sim.Experiments.rows in
  (match r.Sim.Experiments.atomic with
  | Some (Error e) ->
    Alcotest.(check bool) ("verdict names the lost window: " ^ e) true
      (Astring_contains.contains e "trace window lost")
  | Some (Ok ()) -> Alcotest.fail "a wrapped window was judged atomic"
  | None -> Alcotest.fail "observability is off");
  Alcotest.(check bool) "counted as a violation" true
    (List.exists
       (fun (_, label, _) -> label = r.Sim.Experiments.label)
       (Sim.Experiments.violations [ t ]))

let () =
  Alcotest.run "sim"
    [
      ( "conflict-profile",
        [
          Alcotest.test_case "enq-only" `Quick test_profile_enq_only;
          Alcotest.test_case "account ordering" `Quick test_profile_ordering_account;
          Alcotest.test_case "queue ordering (enq-heavy)" `Quick
            test_profile_ordering_queue;
          Alcotest.test_case "txn length monotone" `Quick test_profile_txn_monotone_in_len;
          Alcotest.test_case "zero weights" `Quick test_profile_zero_weights_rejected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "runs all transactions" `Quick test_driver_runs_all_txns;
          Alcotest.test_case "passes indices" `Quick test_driver_passes_indices;
        ] );
      ( "workloads",
        [ Alcotest.test_case "account posts bounded" `Quick test_account_posts_bounded ] );
      ( "experiments",
        [
          Alcotest.test_case "queue-enq shape" `Slow test_exp_queue_enq_shape;
          Alcotest.test_case "account shape" `Slow test_exp_account_shape;
          Alcotest.test_case "semiqueue shape" `Slow test_exp_semiqueue_shape;
          Alcotest.test_case "wrapped trace window is not replayed" `Slow
            test_wrapped_window_not_replayed;
        ] );
    ]
