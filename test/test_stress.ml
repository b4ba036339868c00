(* Multi-domain stress test of one atomic object, with full observability
   reconciliation: every account of the run — the object's own counters,
   the manager's outcome stats, the metrics registry, the trace ring,
   and the replay-reconstructed history — must agree with the others. *)

module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)
module HA = Model.History.Make (A)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let domains = 4
let txns_per_domain = 60

let ev_is p e = p e.Obs.Trace.event

let test_stress_account () =
  Obs.Control.set_enabled true;
  let tr = Obs.Trace.create ~capacity:(1 lsl 18) () in
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~trace:tr ~conflict:A.conflict_hybrid () in
  let counters_before = Obs.Metrics.counters () in
  (* Mixed workload: mostly credit+debit transactions, occasional posts
     (kept rare: each Post 1 doubles the balance in the exact integer
     model). *)
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for k = 1 to txns_per_domain do
              Runtime.Manager.run mgr (fun txn ->
                  if (d + (5 * k)) mod 60 = 0 then
                    ignore (AObj.invoke acc txn (A.Post 1))
                  else begin
                    ignore (AObj.invoke acc txn (A.Credit (1 + (k mod 7))));
                    ignore (AObj.invoke acc txn (A.Debit (1 + ((d + k) mod 5))))
                  end)
            done))
  in
  List.iter Domain.join workers;
  let s = AObj.stats acc in
  let m = Runtime.Manager.stats mgr in

  (* -- transaction-level reconciliation: the object participates in
        every attempt (each body invokes at least once), so the object's
        commit/abort counts are the manager's. -- *)
  check_int "all transactions committed" (domains * txns_per_domain)
    m.Runtime.Manager.committed;
  check_int "manager attempts reconcile" m.Runtime.Manager.started
    (m.Runtime.Manager.committed + m.Runtime.Manager.aborted);
  check_int "object commits = manager commits" m.Runtime.Manager.committed s.AObj.commits;
  check_int "object aborts = manager aborts" m.Runtime.Manager.aborted s.AObj.aborts;

  (* -- trace-level reconciliation: the ring saw exactly what the
        counters counted. -- *)
  check_int "ring did not wrap" 0 (Obs.Trace.dropped tr);
  let es = Obs.Trace.entries tr in
  let count p = List.length (List.filter (ev_is p) es) in
  check_int "trace commits" s.AObj.commits
    (count (function Obs.Trace.Commit _ -> true | _ -> false));
  check_int "trace aborts" s.AObj.aborts
    (count (function Obs.Trace.Abort -> true | _ -> false));
  check_int "trace responses = recorded operations" s.AObj.invocations
    (count (function Obs.Trace.Respond _ -> true | _ -> false));
  check_int "trace refusals = conflict counter" s.AObj.conflicts
    (count (function Obs.Trace.Lock_refused _ -> true | _ -> false));
  check_int "trace blocked = blocked counter" s.AObj.blocked
    (count (function Obs.Trace.Blocked -> true | _ -> false));
  (match
     List.rev
       (List.filter_map
          (fun e ->
            match e.Obs.Trace.event with Obs.Trace.Forgotten n -> Some n | _ -> None)
          es)
   with
  | last :: _ -> check_int "last fold event = forgotten counter" s.AObj.forgotten last
  | [] -> check_int "nothing folded" 0 s.AObj.forgotten);

  (* -- metrics-level reconciliation: registry deltas match both. -- *)
  let get name l = Option.value ~default:0 (List.assoc_opt name l) in
  let counters_after = Obs.Metrics.counters () in
  let delta name = get name counters_after - get name counters_before in
  check_int "metric obj.commits" s.AObj.commits (delta "obj.commits");
  check_int "metric obj.aborts" s.AObj.aborts (delta "obj.aborts");
  check_int "metric obj.invocations" s.AObj.invocations (delta "obj.invocations");
  check_int "metric obj.conflicts" s.AObj.conflicts (delta "obj.conflicts");
  check_int "metric obj.forgotten" s.AObj.forgotten (delta "obj.forgotten");
  check_int "metric txn.attempts" m.Runtime.Manager.started (delta "txn.attempts");
  check_int "metric txn.commits" m.Runtime.Manager.committed (delta "txn.commits");
  check_int "metric txn.aborts" m.Runtime.Manager.aborted (delta "txn.aborts");
  check_int "every abort is a wait-die death" m.Runtime.Manager.aborted
    (delta "retry.wait_die_deaths");

  (* -- history-level reconciliation: the replay-reconstructed history
        is hybrid atomic, and replaying its committed transactions in
        timestamp order independently reproduces the object's final
        committed state. -- *)
  (match AObj.replay_check acc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("replay check rejected the stress run: " ^ e));
  let h = AObj.replayed_history acc in
  check_int "history commits" s.AObj.commits (List.length (HA.committed h));
  let in_ts_order =
    HA.committed h
    |> List.filter_map (fun q -> Option.map (fun ts -> (ts, q)) (HA.timestamp_of h q))
    |> List.sort compare |> List.map snd
  in
  let final_states = HA.Seq.states_after (HA.op_seq_in_order h in_ts_order) in
  (match (final_states, AObj.committed_states acc) with
  | [ replayed ], [ committed ] ->
    check_int "trace replay reproduces the committed balance" committed replayed
  | _ -> Alcotest.fail "account states should be singletons");
  check_bool "some concurrency actually happened" true
    (s.AObj.conflicts > 0 || m.Runtime.Manager.aborted > 0 || s.AObj.forgotten > 0)

let () =
  (* The interleavings this test samples depend on real parallelism, so
     say how much the host offers. *)
  Printf.printf "recommended_domain_count = %d (spawning %d domains)\n%!"
    (Domain.recommended_domain_count ())
    domains;
  Alcotest.run "stress"
    [
      ( "account-4-domains",
        [ Alcotest.test_case "observability reconciliation" `Slow test_stress_account ]
      );
    ]
