(* Orphan behaviour.  The paper deliberately places few restrictions on
   aborted transactions (Section 2): "a transaction can continue to
   invoke operations after it has aborted", explicitly to model systems
   with orphans.  These tests check both layers:

   - formal: the LOCK machine keeps accepting an orphan's invocations
     but refuses every response, and the orphan cannot damage (online)
     hybrid atomicity;
   - runtime: an orphaned worker (its transaction aborted from outside)
     is detected at the object interface and told to stop, and nothing
     it did survives. *)

module Q = Adt.Fifo_queue
module L = Hybrid.Lock_machine.Make (Q)
module H = L.H
module At = Model.Atomicity.Make (Q)
module QObj = Runtime.Atomic_obj.Make (Q)

let p = Model.Txn.make ~label:"P" 1
let q = Model.Txn.make ~label:"Q" 2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- formal layer ---------------- *)

let test_orphan_invocations_accepted_responses_refused () =
  let feed m e = Result.get_ok (L.step m e) in
  let m = L.create ~conflict:Q.conflict_hybrid in
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  let m = feed m (H.Respond (p, Q.Ok)) in
  let m = feed m (H.Abort p) in
  (* the orphan keeps invoking: inputs are always accepted *)
  let m = feed m (H.Invoke (p, Q.Enq 2)) in
  (match L.step m (H.Respond (p, Q.Ok)) with
  | Error L.Already_completed -> ()
  | _ -> Alcotest.fail "orphan response must be refused");
  (* and it has no footprint: other transactions run as if it never
     existed *)
  let m = feed m (H.Invoke (q, Q.Enq 3)) in
  match L.step m (H.Respond (q, Q.Ok)) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "orphan must not hold locks"

let test_orphan_history_stays_atomic () =
  let h =
    [
      H.Invoke (p, Q.Enq 1);
      H.Respond (p, Q.Ok);
      H.Abort p;
      H.Invoke (p, Q.Enq 2);
      (* orphan activity *)
      H.Invoke (q, Q.Enq 3);
      H.Respond (q, Q.Ok);
      H.Commit (q, 1);
    ]
  in
  check_bool "well-formed" true
    (match H.well_formed h with Ok () -> true | Error _ -> false);
  check_bool "accepted by LOCK" true (L.accepts ~conflict:Q.conflict_hybrid h);
  check_bool "online hybrid atomic" true (At.online_hybrid_atomic h)

let test_orphan_releases_horizon () =
  (* An orphan must not pin compaction: its bound is discarded at abort
     and not restored by later invocations. *)
  let module C = Hybrid.Compacted.Make (Q) in
  let feed m e = Result.get_ok (C.step m e) in
  let m = C.create ~conflict:Q.conflict_hybrid in
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  let m = feed m (H.Respond (p, Q.Ok)) in
  let m = feed m (H.Abort p) in
  let m = feed m (H.Invoke (p, Q.Deq)) in
  (* orphan invocation *)
  let m = feed m (H.Invoke (q, Q.Enq 3)) in
  let m = feed m (H.Respond (q, Q.Ok)) in
  let m = feed m (H.Commit (q, 1)) in
  check_int "committed transaction folded despite the orphan" 1 (C.forgotten m)

(* ---------------- runtime layer ---------------- *)

let test_runtime_orphan_detected () =
  let obj = QObj.create ~conflict:Q.conflict_hybrid () in
  let txn = Runtime.Txn_rt.fresh () in
  (match QObj.try_invoke obj txn (Q.Enq 1) with
  | Ok Q.Ok -> ()
  | _ -> Alcotest.fail "first op");
  (* the transaction is aborted out from under its worker *)
  Runtime.Txn_rt.abort txn;
  check_bool "orphan told to stop" true
    (try
       ignore (QObj.try_invoke obj txn (Q.Enq 2));
       false
     with Runtime.Txn_rt.Abort_requested _ -> true);
  (* nothing survives *)
  match QObj.committed_states obj with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "orphan work must not survive"

let test_runtime_orphan_mid_concurrency () =
  (* A worker races against an external abort; whatever happens, the
     object's committed state reflects only committed transactions. *)
  let obj = QObj.create ~conflict:Q.conflict_hybrid () in
  for k = 1 to 20 do
    let txn = Runtime.Txn_rt.fresh () in
    let killer =
      Domain.spawn (fun () -> if k mod 2 = 0 then Runtime.Txn_rt.abort txn)
    in
    (try
       (match QObj.try_invoke obj txn (Q.Enq k) with Ok _ | Error _ -> ());
       Domain.join killer;
       match Runtime.Txn_rt.status txn with
       | `Active -> Runtime.Txn_rt.abort txn
       | `Aborted | `Committed _ -> ()
     with Runtime.Txn_rt.Abort_requested _ -> Domain.join killer)
  done;
  (* every handle was aborted: the queue must be empty *)
  match QObj.committed_states obj with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "only committed work may survive"

(* An abort from another domain racing an invocation must still reach
   the object.  [race_aborts] runs [n] transactions through [body] while
   a killer domain aborts each one after a spin of varying length, so
   some aborts land before the invocation, some during it and some
   after; whatever the order, once every transaction is aborted no
   intention, lock or bound may remain. *)
let race_aborts ~round ~n body =
  (* Spin, then sleep, so that the handoffs also make progress when the
     two domains share one core. *)
  let await cond =
    let rec go spins =
      if not (cond ()) then begin
        if spins < 1000 then Domain.cpu_relax () else Unix.sleepf 1e-5;
        go (spins + 1)
      end
    in
    go 0
  in
  let victim = Atomic.make None in
  let killed = Atomic.make 0 in
  let stop = Atomic.make false in
  let killer =
    Domain.spawn (fun () ->
        let rec loop () =
          await (fun () -> Atomic.get stop || Option.is_some (Atomic.get victim));
          match Atomic.exchange victim None with
          | None -> ()
          | Some (k, txn) ->
            for _ = 1 to (k + round) land 63 do
              Domain.cpu_relax ()
            done;
            Runtime.Txn_rt.abort txn;
            Atomic.incr killed;
            loop ()
        in
        loop ())
  in
  for k = 1 to n do
    let txn = Runtime.Txn_rt.fresh () in
    Atomic.set victim (Some (k, txn));
    (try body k txn with Runtime.Txn_rt.Abort_requested _ -> ());
    await (fun () -> Atomic.get killed >= k)
  done;
  Atomic.set stop true;
  Domain.join killer

let test_runtime_abort_races_invoke () =
  for round = 1 to 20 do
    let obj = QObj.create ~conflict:Q.conflict_hybrid () in
    race_aborts ~round ~n:500 (fun k txn ->
        ignore (QObj.try_invoke obj txn (Q.Enq k) : (Q.res, _) result));
    check_int (Printf.sprintf "round %d: live ops" round) 0 (QObj.live_ops obj)
  done

(* The same race on the appendix's Avalon Account: a Debit on an empty
   account takes the Overdraft lock, which conflicts with Credit, so a
   lock left behind by a dead transaction refuses every later Credit. *)
let test_avalon_abort_races_debit () =
  let module Av = Avalon_account in
  for round = 1 to 20 do
    let acct = Av.create () in
    race_aborts ~round ~n:200 (fun _ txn -> ignore (Av.try_debit acct txn 1));
    let txn = Runtime.Txn_rt.fresh () in
    check_bool
      (Printf.sprintf "round %d: credit after the race" round)
      true
      (Result.is_ok (Av.try_credit acct txn 1));
    Runtime.Txn_rt.abort txn
  done

let () =
  Alcotest.run "orphans"
    [
      ( "formal",
        [
          Alcotest.test_case "invocations accepted, responses refused" `Quick
            test_orphan_invocations_accepted_responses_refused;
          Alcotest.test_case "atomicity unaffected" `Quick test_orphan_history_stays_atomic;
          Alcotest.test_case "horizon not pinned" `Quick test_orphan_releases_horizon;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "orphan detected at the object" `Quick
            test_runtime_orphan_detected;
          Alcotest.test_case "orphans under concurrency" `Quick
            test_runtime_orphan_mid_concurrency;
          Alcotest.test_case "abort racing an invocation releases the object" `Quick
            test_runtime_abort_races_invoke;
          Alcotest.test_case "abort racing an Avalon debit releases its lock" `Quick
            test_avalon_abort_races_debit;
        ] );
    ]
