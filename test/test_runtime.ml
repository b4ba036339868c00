(* Tests for the concurrent runtime: transaction handles, the manager,
   the generic atomic object on real domains, and end-to-end hybrid
   atomicity of recorded histories. *)

module Q = Adt.Fifo_queue
module A = Adt.Account
module QObj = Runtime.Atomic_obj.Make (Q)
module AObj = Runtime.Atomic_obj.Make (A)
module HQ = Model.History.Make (Q)
module AtQ = Model.Atomicity.Make (Q)
module HA = Model.History.Make (A)
module AtA = Model.Atomicity.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Txn_rt ---------------- *)

let test_txn_lifecycle () =
  let t = Runtime.Txn_rt.fresh () in
  check_bool "active" true (Runtime.Txn_rt.status t = `Active);
  check_bool "registered" true
    (Runtime.Txn_rt.priority_of_id (Runtime.Txn_rt.id t) <> None);
  let committed = ref [] in
  Runtime.Txn_rt.add_participant t ~key:1
    {
      Runtime.Txn_rt.name = "x";
      on_commit = (fun ts -> committed := ts :: !committed);
      on_abort = (fun () -> ());
    };
  (* registration is idempotent per key *)
  Runtime.Txn_rt.add_participant t ~key:1
    {
      Runtime.Txn_rt.name = "x";
      on_commit = (fun ts -> committed := ts :: !committed);
      on_abort = (fun () -> ());
    };
  check_int "one participant" 1 (Runtime.Txn_rt.participant_count t);
  Runtime.Txn_rt.commit t 42;
  check_bool "committed" true (Runtime.Txn_rt.status t = `Committed 42);
  Alcotest.(check (list int)) "notified once" [ 42 ] !committed;
  check_bool "deregistered" true
    (Runtime.Txn_rt.priority_of_id (Runtime.Txn_rt.id t) = None);
  Alcotest.check_raises "commit twice" (Invalid_argument "Txn_rt.commit: transaction not active")
    (fun () -> Runtime.Txn_rt.commit t 43)

let test_txn_abort () =
  let t = Runtime.Txn_rt.fresh () in
  let aborted = ref 0 in
  Runtime.Txn_rt.add_participant t ~key:1
    {
      Runtime.Txn_rt.name = "x";
      on_commit = (fun _ -> ());
      on_abort = (fun () -> incr aborted);
    };
  Runtime.Txn_rt.abort t;
  check_int "notified" 1 !aborted;
  Runtime.Txn_rt.abort t;
  check_int "abort idempotent" 1 !aborted

let test_txn_priority_inheritance () =
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh ~priority:(Runtime.Txn_rt.priority t1) () in
  check_bool "same priority" true
    (Runtime.Txn_rt.priority t1 = Runtime.Txn_rt.priority t2);
  check_bool "different ids" true (Runtime.Txn_rt.id t1 <> Runtime.Txn_rt.id t2);
  Runtime.Txn_rt.abort t1;
  Runtime.Txn_rt.abort t2

(* ---------------- Manager ---------------- *)

let test_manager_commit_timestamps_unique_and_increasing () =
  let mgr = Runtime.Manager.create () in
  let tss = ref [] in
  for _ = 1 to 5 do
    Runtime.Manager.run mgr (fun txn ->
        Runtime.Txn_rt.add_participant txn ~key:0
          {
            Runtime.Txn_rt.name = "probe";
            on_commit = (fun ts -> tss := ts :: !tss);
            on_abort = (fun () -> ());
          })
  done;
  let tss = List.rev !tss in
  check_bool "strictly increasing" true (List.sort_uniq compare tss = tss);
  check_int "current_time" 5 (Runtime.Manager.current_time mgr)

let test_manager_retry_on_abort () =
  let mgr = Runtime.Manager.create () in
  let attempts = ref 0 in
  let v =
    Runtime.Manager.run mgr (fun _ ->
        incr attempts;
        if !attempts < 3 then Runtime.Manager.abort_in ~reason:"retry me" ();
        "done")
  in
  Alcotest.(check string) "eventually succeeds" "done" v;
  check_int "three attempts" 3 !attempts;
  let s = Runtime.Manager.stats mgr in
  check_int "stats committed" 1 s.Runtime.Manager.committed;
  check_int "stats aborted" 2 s.Runtime.Manager.aborted

let test_manager_other_exceptions_propagate () =
  let mgr = Runtime.Manager.create () in
  Alcotest.check_raises "propagates" Exit (fun () ->
      Runtime.Manager.run mgr (fun _ -> raise Exit))

(* ---------------- Atomic_obj, single-threaded semantics ------------- *)

let test_obj_basic_roundtrip () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      (match QObj.invoke q txn (Q.Enq 7) with Q.Ok -> () | _ -> Alcotest.fail "enq");
      match QObj.invoke q txn Q.Deq with
      | Q.Val 7 -> ()
      | _ -> Alcotest.fail "deq should see own enqueue");
  match QObj.committed_states q with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "queue should be empty after commit"

let test_obj_abort_discards () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  (match
     Runtime.Manager.run_once mgr (fun txn ->
         ignore (QObj.invoke q txn (Q.Enq 7));
         Runtime.Manager.abort_in ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected abort");
  match QObj.committed_states q with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "aborted enqueue must not survive"

let test_obj_blocked_on_partial () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      match QObj.try_invoke q txn Q.Deq with
      | Error `Blocked -> ()
      | _ -> Alcotest.fail "Deq on empty should block")

let test_obj_conflict_reported_with_holder () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let holder = Runtime.Txn_rt.fresh () in
  (match QObj.try_invoke q holder (Q.Enq 1) with
  | Ok Q.Ok -> ()
  | _ -> Alcotest.fail "first enq should succeed");
  Runtime.Manager.run mgr (fun txn ->
      match QObj.try_invoke q txn (Q.Enq 2) with
      | Error (`Conflict (Some c)) ->
        check_int "holder id" (Runtime.Txn_rt.id holder) c.Runtime.Retry.holder
      | _ -> Alcotest.fail "expected conflict with holder");
  Runtime.Txn_rt.abort holder

let test_obj_stats () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (QObj.invoke q txn (Q.Enq 1)));
  Runtime.Manager.run mgr (fun txn -> ignore (QObj.invoke q txn Q.Deq));
  let s = QObj.stats q in
  check_int "invocations" 2 s.QObj.invocations;
  check_int "commits" 2 s.QObj.commits;
  check_int "forgotten" 2 s.QObj.forgotten

(* ---------------- recorded histories are hybrid atomic -------------- *)

let test_recorded_history_hybrid_atomic () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~record:true ~conflict:Q.conflict_hybrid () in
  let worker d =
    Domain.spawn (fun () ->
        for k = 0 to 9 do
          Runtime.Manager.run mgr (fun txn ->
              ignore (QObj.invoke q txn (Q.Enq ((10 * d) + k)));
              if k mod 3 = 0 then ignore (QObj.invoke q txn Q.Deq))
        done)
  in
  List.iter Domain.join (List.init 2 worker);
  let h = QObj.history q in
  check_bool "well-formed" true
    (match HQ.well_formed h with Ok () -> true | Error _ -> false);
  check_bool "timestamps respect precedes" true (HQ.timestamps_respect_precedes h);
  check_bool "hybrid atomic" true (AtQ.hybrid_atomic h)

let test_recorded_history_in_lock_language () =
  (* End-to-end tie to the formal spec: everything the concurrent engine
     records must be a history the Section 5 LOCK machine accepts under
     the same conflict relation. *)
  let module L = Hybrid.Lock_machine.Make (Q) in
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~record:true ~conflict:Q.conflict_hybrid () in
  let worker d =
    Domain.spawn (fun () ->
        for k = 0 to 14 do
          Runtime.Manager.run mgr (fun txn ->
              ignore (QObj.invoke q txn (Q.Enq ((10 * d) + k)));
              if k mod 4 = 1 then ignore (QObj.invoke q txn Q.Deq))
        done)
  in
  List.iter Domain.join (List.init 3 worker);
  check_bool "recorded history is in L(LOCK)" true
    (L.accepts ~conflict:Q.conflict_hybrid (QObj.history q))

let test_recorded_account_history_hybrid_atomic () =
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~record:true ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 50)));
  let worker _ =
    Domain.spawn (fun () ->
        for k = 1 to 8 do
          Runtime.Manager.run mgr (fun txn ->
              ignore (AObj.invoke acc txn (A.Credit k));
              ignore (AObj.invoke acc txn (A.Debit 1)))
        done)
  in
  List.iter Domain.join (List.init 2 worker);
  let h = AObj.history acc in
  check_bool "well-formed" true
    (match HA.well_formed h with Ok () -> true | Error _ -> false);
  check_bool "hybrid atomic" true (AtA.hybrid_atomic h)

(* ---------------- multicore invariants ---------------- *)

let test_concurrent_credits_conserve_money () =
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:A.conflict_hybrid () in
  let per_domain = 100 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Runtime.Manager.run mgr (fun txn ->
                  ignore (AObj.invoke acc txn (A.Credit 3)))
            done))
  in
  List.iter Domain.join workers;
  match AObj.committed_states acc with
  | [ balance ] -> check_int "balance" (4 * per_domain * 3) balance
  | _ -> Alcotest.fail "one state expected"

let test_concurrent_enqueues_never_conflict () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to 49 do
              Runtime.Manager.run mgr (fun txn ->
                  ignore (QObj.invoke q txn (Q.Enq ((100 * d) + k))))
            done))
  in
  List.iter Domain.join workers;
  let s = QObj.stats q in
  check_int "zero conflicts" 0 s.QObj.conflicts;
  check_int "all committed" 200 s.QObj.commits

let test_dequeue_order_is_timestamp_order () =
  (* Drain a concurrently-filled queue; each drained item must have been
     enqueued by an earlier-committed transaction (we check FIFO per
     producer, the observable consequence). *)
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  let workers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to 19 do
              Runtime.Manager.run mgr (fun txn ->
                  ignore (QObj.invoke q txn (Q.Enq ((100 * d) + k))))
            done))
  in
  List.iter Domain.join workers;
  let drained = ref [] in
  for _ = 1 to 60 do
    Runtime.Manager.run mgr (fun txn ->
        match QObj.invoke q txn Q.Deq with
        | Q.Val v -> drained := v :: !drained
        | Q.Ok -> Alcotest.fail "deq returned ok")
  done;
  let drained = List.rev !drained in
  check_int "all items" 60 (List.length drained);
  List.iter
    (fun d ->
      let mine = List.filter (fun v -> v / 100 = d) drained in
      check_bool
        (Printf.sprintf "producer %d FIFO" d)
        true
        (mine = List.sort compare mine))
    [ 0; 1; 2 ]

let test_wait_die_resolves_deadlock () =
  (* Two transactions that each grab one enq lock under 2PL-RW and then
     want the other's: classic deadlock, resolved by wait-die aborts. *)
  let mgr = Runtime.Manager.create () in
  let q1 = QObj.create ~name:"q1" ~conflict:Q.conflict_rw () in
  let q2 = QObj.create ~name:"q2" ~conflict:Q.conflict_rw () in
  let barrier = Atomic.make 0 in
  let worker (first, second) =
    Domain.spawn (fun () ->
        Runtime.Manager.run mgr (fun txn ->
            ignore (QObj.invoke first txn (Q.Enq 1));
            Atomic.incr barrier;
            (* wait until both hold their first lock at least once *)
            let spin = ref 0 in
            while Atomic.get barrier < 2 && !spin < 10_000 do
              incr spin;
              Domain.cpu_relax ()
            done;
            ignore (QObj.invoke second txn (Q.Enq 2))))
  in
  let d1 = worker (q1, q2) in
  let d2 = worker (q2, q1) in
  Domain.join d1;
  Domain.join d2;
  (* both eventually committed *)
  let s = Runtime.Manager.stats mgr in
  check_int "both committed" 2 s.Runtime.Manager.committed

(* ---------------- fold reports ---------------- *)

(* A fold published by a Respond is reported like any other.  T1's
   refused Debit stays pending with the lower bound it had before T2
   committed, so the horizon holds below T2's timestamp; T1's retried
   response raises that bound to the clock and folds T2 in the same
   publish.  With a WAL attached, the fold appends T2's checkpoint, and
   the closed log recovers the committed balance. *)
let respond_fold ~durable () =
  let was_enabled = Obs.Control.enabled () in
  let path = Filename.temp_file "hybrid-cc-fold" ".wal" in
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled was_enabled;
      Sys.remove path)
  @@ fun () ->
  let wal = if durable then Some (Wal.Log.create ~fsync:false path) else None in
  let tr = Obs.Trace.create ~capacity:1024 () in
  let mgr = Runtime.Manager.create ?wal () in
  let acc =
    AObj.create ~trace:tr
      ?wal:(Option.map (fun w -> (w, A.codec)) wal)
      ~conflict:A.conflict_hybrid ()
  in
  let forgotten_metric () =
    Option.value ~default:0 (List.assoc_opt "obj.forgotten" (Obs.Metrics.counters ()))
  in
  let metric_before = forgotten_metric () in
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh () in
  check_bool "T2 credit granted" true (AObj.try_invoke acc t2 (A.Credit 5) = Ok A.Ok);
  (match AObj.try_invoke acc t1 (A.Debit 2) with
  | Error (`Conflict _) -> ()
  | _ -> Alcotest.fail "T1's debit must conflict with T2's uncommitted credit");
  let ts2 = Runtime.Manager.commit_txn mgr t2 in
  check_int "T1's pending bound holds T2 unfolded" 0 (AObj.stats acc).AObj.forgotten;
  check_bool "T1's retried debit granted" true (AObj.try_invoke acc t1 (A.Debit 2) = Ok A.Ok);
  let folds =
    List.filter_map
      (fun e ->
        match e.Obs.Trace.event with
        | (Obs.Trace.Horizon_advanced _ | Obs.Trace.Forgotten _) as ev
          when e.Obs.Trace.obj = AObj.key acc ->
          Some ev
        | _ -> None)
      (Obs.Trace.entries tr)
  in
  check_bool "one Horizon_advanced/Forgotten pair for T2" true
    (folds = [ Obs.Trace.Horizon_advanced ts2; Obs.Trace.Forgotten 1 ]);
  check_int "stats.forgotten" 1 (AObj.stats acc).AObj.forgotten;
  check_int "metric obj.forgotten delta" 1 (forgotten_metric () - metric_before);
  match wal with
  | None -> ()
  | Some w -> (
    check_bool "checkpoint appended at T2's timestamp" true
      (Wal.Log.checkpoint_upto w (AObj.name acc) = Some ts2);
    ignore (Runtime.Manager.commit_txn mgr t1 : int);
    Wal.Log.close w;
    let records, _ = Wal.Log.read path in
    let module R = Wal.Recover.Make (A) in
    match R.recover ~obj:(AObj.name acc) records with
    | Error e -> Alcotest.fail e
    | Ok oc -> check_bool "recovered balance" true (R.equal_states oc.R.states [ 3 ]))

(* ---------------- the senior rule ---------------- *)

(* An older transaction refused by a younger holder waits (wait-die);
   once the holder commits, a transaction younger than the waiter must
   not take the lock the waiter asked for.  Single domain, explicit
   priorities: T_old (1) < T_mid (2) < T_young (3).  The balance is
   seeded so every Debit 1 answers Ok, and Debit/Ok conflicts with
   Debit/Ok. *)
let senior_setup () =
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 10)));
  let t_old = Runtime.Txn_rt.fresh ~priority:1 () in
  let t_mid = Runtime.Txn_rt.fresh ~priority:2 () in
  let t_young = Runtime.Txn_rt.fresh ~priority:3 () in
  check_bool "T_mid's debit granted" true (AObj.try_invoke acc t_mid (A.Debit 1) = Ok A.Ok);
  (match AObj.try_invoke acc t_old (A.Debit 1) with
  | Error (`Conflict (Some c)) ->
    check_int "T_old refused by T_mid" (Runtime.Txn_rt.id t_mid) c.Runtime.Retry.holder
  | _ -> Alcotest.fail "T_old's debit must conflict with T_mid's");
  (mgr, acc, t_old, t_mid, t_young)

let check_barred_by acc ~senior t_young =
  match AObj.try_invoke acc t_young (A.Debit 1) with
  | Error (`Conflict (Some c)) ->
    check_int "holder is the senior" (Runtime.Txn_rt.id senior) c.Runtime.Retry.holder;
    Alcotest.(check (option int))
      "holder priority is the senior's" (Some (Runtime.Txn_rt.priority senior))
      c.Runtime.Retry.holder_priority
  | Ok _ -> Alcotest.fail "T_young barged past the waiting senior"
  | Error _ -> Alcotest.fail "T_young: expected a conflict naming the senior"

let test_senior_not_barged () =
  let mgr, acc, t_old, t_mid, t_young = senior_setup () in
  ignore (Runtime.Manager.commit_txn mgr t_mid : int);
  check_barred_by acc ~senior:t_old t_young;
  check_bool "T_old's retry granted" true (AObj.try_invoke acc t_old (A.Debit 1) = Ok A.Ok);
  ignore (Runtime.Manager.commit_txn mgr t_old : int);
  check_bool "T_young granted after T_old commits" true
    (AObj.try_invoke acc t_young (A.Debit 1) = Ok A.Ok);
  ignore (Runtime.Manager.commit_txn mgr t_young : int);
  check_bool "balance" true (AObj.committed_states acc = [ 7 ])

let test_senior_cleared_on_abort () =
  let mgr, acc, t_old, t_mid, t_young = senior_setup () in
  ignore (Runtime.Manager.commit_txn mgr t_mid : int);
  check_barred_by acc ~senior:t_old t_young;
  Runtime.Manager.abort_txn mgr t_old;
  check_bool "T_young granted once the senior aborted" true
    (AObj.try_invoke acc t_young (A.Debit 1) = Ok A.Ok);
  ignore (Runtime.Manager.commit_txn mgr t_young : int);
  check_bool "balance" true (AObj.committed_states acc = [ 8 ])

(* A senior whose retry is blocked waits on the state, not on a lock,
   so it must not bar the younger transactions that could unblock it.
   FIFO queue under Figure 4-2 (Deq/v conflicts with Deq/v and with Enq
   of any other item): T_mid dequeues the only item, T_old's Deq is
   refused for the same item and becomes senior, T_mid commits, and
   T_old's retry finds the queue empty. *)
let test_senior_cleared_when_blocked () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (QObj.invoke q txn (Q.Enq 1)));
  let t_old = Runtime.Txn_rt.fresh ~priority:1 () in
  let t_mid = Runtime.Txn_rt.fresh ~priority:2 () in
  let t_young = Runtime.Txn_rt.fresh ~priority:3 () in
  check_bool "T_mid dequeues 1" true (QObj.try_invoke q t_mid Q.Deq = Ok (Q.Val 1));
  (match QObj.try_invoke q t_old Q.Deq with
  | Error (`Conflict (Some c)) ->
    check_int "T_old refused by T_mid" (Runtime.Txn_rt.id t_mid) c.Runtime.Retry.holder
  | _ -> Alcotest.fail "T_old's Deq must conflict with T_mid's");
  ignore (Runtime.Manager.commit_txn mgr t_mid : int);
  check_bool "T_old's retry blocks on the empty queue" true
    (QObj.try_invoke q t_old Q.Deq = Error `Blocked);
  check_bool "T_young's Enq 2 granted" true (QObj.try_invoke q t_young (Q.Enq 2) = Ok Q.Ok);
  ignore (Runtime.Manager.commit_txn mgr t_young : int);
  check_bool "T_old dequeues 2" true (QObj.try_invoke q t_old Q.Deq = Ok (Q.Val 2));
  ignore (Runtime.Manager.commit_txn mgr t_old : int);
  check_bool "queue empty" true (QObj.committed_states q = [ [] ])

(* ---------------- the priority registry ---------------- *)

(* The live-id limit txn_rt.mli documents: one registry cell per live
   id.  These tests need every cell free when they start, so they run
   before any test that may leave a handle live. *)
let registry_cap = 8192

(* The cell map is a bijection on ids mod [registry_cap]: with one id
   live, the next 8191 ids all register at once, and the 8192nd after
   it shares its cell. *)
let test_registry_cell_map () =
  let module T = Runtime.Txn_rt in
  let first = T.fresh () in
  let a = T.id first in
  let live = first :: List.init (registry_cap - 1) (fun k -> T.fresh ~id:(a + 1 + k) ()) in
  Alcotest.check_raises "an id congruent to a live one shares its cell"
    (Invalid_argument "Txn_rt.fresh: another live id holds this id's registry cell")
    (fun () -> ignore (T.fresh ~id:(a + registry_cap) () : T.t));
  check_bool "every id resolves to its own priority" true
    (List.for_all (fun t -> T.priority_of_id (T.id t) = Some (T.id t)) live);
  List.iter T.abort live

(* A draw that lands on a live id's cell skips it without a lock: with
   one handle held, 8192 more are drawn and completed, and the 8192nd
   draw is the first to reach the held id's cell. *)
let test_registry_draws_past_live_id () =
  let module T = Runtime.Txn_rt in
  let held = T.fresh () in
  let before = Runtime.Lockstat.snapshot () in
  for _ = 1 to registry_cap do
    let t = T.fresh () in
    let own t = T.priority_of_id (T.id t) = Some (T.id t) in
    if not (own t && own held) then
      Alcotest.failf "ids %d and %d do not resolve to their own priorities" (T.id held) (T.id t);
    T.abort t
  done;
  let locks = Runtime.Lockstat.(total (diff ~before ~after:(snapshot ()))) in
  check_int "mutex acquisitions" 0 locks;
  T.abort held

(* With every cell held a draw raises; once one handle completes, a
   draw succeeds again. *)
let test_registry_limit () =
  let module T = Runtime.Txn_rt in
  let held = List.init registry_cap (fun _ -> T.fresh ()) in
  Alcotest.check_raises "fresh with every cell held" T.Registry_full (fun () ->
      ignore (T.fresh () : T.t));
  Alcotest.check_raises "fresh_id with every cell held" T.Registry_full (fun () ->
      ignore (T.fresh_id () : int));
  T.abort (List.hd held);
  let t = T.fresh () in
  check_bool "a draw after one completes" true (T.priority_of_id (T.id t) = Some (T.id t));
  List.iter T.abort (t :: List.tl held)

(* Every way a [Manager.run] or [Coordinator.run] body can end gives
   back every registry cell it took: after a body that restarts and
   commits, one that raises, one that restarts and then raises, and one
   that touches nothing, under each, all [registry_cap] cells can be
   held at once.  [touch] invokes the transaction's objects. *)
let ending_bodies =
  [
    (fun ~touch attempt ->
      touch 1;
      if attempt = 1 then Runtime.Manager.abort_in ());
    (fun ~touch _ ->
      touch 2;
      failwith "body raised");
    (fun ~touch attempt ->
      touch 3;
      if attempt = 1 then Runtime.Manager.abort_in () else failwith "restart raised");
    (fun ~touch:_ _ -> ());
  ]

let run_each_ending run =
  List.iter
    (fun body ->
      let attempt = ref 0 in
      try
        run (fun touch ->
            incr attempt;
            body ~touch !attempt)
      with Failure _ -> ())
    ending_bodies

let test_registry_no_leak_after_runs () =
  let module T = Runtime.Txn_rt in
  let enq q txn v = ignore (QObj.invoke q txn (Q.Enq v) : Q.res) in
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_rw () in
  run_each_ending (fun f -> Runtime.Manager.run mgr (fun txn -> f (enq q txn)));
  let router = Dist.Router.make ~count:2 () in
  let coord = Dist.Coordinator.create router in
  let branches =
    List.init 2 (fun i -> (Dist.Router.shard router i, QObj.create ~conflict:Q.conflict_rw ()))
  in
  run_each_ending (fun f ->
      Dist.Coordinator.run coord (fun ctx ->
          f (fun v ->
              List.iter (fun (shard, q) -> enq q (Dist.Coordinator.branch ctx shard) v) branches)));
  Dist.Router.close router;
  match List.init registry_cap (fun _ -> T.fresh ()) with
  | held -> List.iter T.abort held
  | exception T.Registry_full -> Alcotest.fail "a run left a registry cell held"

let () =
  Alcotest.run "runtime"
    [
      ( "txn",
        [
          Alcotest.test_case "lifecycle" `Quick test_txn_lifecycle;
          Alcotest.test_case "abort" `Quick test_txn_abort;
          Alcotest.test_case "priority inheritance" `Quick test_txn_priority_inheritance;
          Alcotest.test_case "registry cell map" `Quick test_registry_cell_map;
        ] );
      ( "registry",
        [
          Alcotest.test_case "draws past a live id take no lock" `Quick
            test_registry_draws_past_live_id;
          Alcotest.test_case "every cell held" `Quick test_registry_limit;
          Alcotest.test_case "no cell left after run bodies" `Quick
            test_registry_no_leak_after_runs;
        ] );
      ( "manager",
        [
          Alcotest.test_case "timestamps unique and increasing" `Quick
            test_manager_commit_timestamps_unique_and_increasing;
          Alcotest.test_case "retry on abort" `Quick test_manager_retry_on_abort;
          Alcotest.test_case "exceptions propagate" `Quick
            test_manager_other_exceptions_propagate;
        ] );
      ( "object",
        [
          Alcotest.test_case "roundtrip" `Quick test_obj_basic_roundtrip;
          Alcotest.test_case "abort discards" `Quick test_obj_abort_discards;
          Alcotest.test_case "blocked on partial op" `Quick test_obj_blocked_on_partial;
          Alcotest.test_case "conflict carries holder" `Quick
            test_obj_conflict_reported_with_holder;
          Alcotest.test_case "stats" `Quick test_obj_stats;
        ] );
      ( "fold-reports",
        [
          Alcotest.test_case "respond fold is reported" `Quick
            (respond_fold ~durable:false);
          Alcotest.test_case "respond fold checkpoints and recovers" `Quick
            (respond_fold ~durable:true);
        ] );
      ( "senior-rule",
        [
          Alcotest.test_case "younger txn cannot barge past a waiting senior" `Quick
            test_senior_not_barged;
          Alcotest.test_case "senior cleared on abort" `Quick test_senior_cleared_on_abort;
          Alcotest.test_case "blocked senior does not bar producers" `Quick
            test_senior_cleared_when_blocked;
        ] );
      ( "histories",
        [
          Alcotest.test_case "queue history hybrid atomic" `Quick
            test_recorded_history_hybrid_atomic;
          Alcotest.test_case "recorded history in L(LOCK)" `Quick
            test_recorded_history_in_lock_language;
          Alcotest.test_case "account history hybrid atomic" `Quick
            test_recorded_account_history_hybrid_atomic;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "credits conserve money" `Quick
            test_concurrent_credits_conserve_money;
          Alcotest.test_case "enqueues never conflict" `Quick
            test_concurrent_enqueues_never_conflict;
          Alcotest.test_case "per-producer FIFO" `Quick
            test_dequeue_order_is_timestamp_order;
          Alcotest.test_case "wait-die resolves deadlock" `Quick
            test_wait_die_resolves_deadlock;
        ] );
    ]
