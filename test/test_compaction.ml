(* Tests for Section 6: the bookkeeping components (clock, bounds,
   horizon), Theorem 24 (the common prefix grows monotonically), and the
   observational equivalence of the compacted machine with the formal
   LOCK machine on randomly generated histories. *)

module Q = Adt.Fifo_queue
module A = Adt.Account
module L = Hybrid.Lock_machine.Make (Q)
module C = Hybrid.Compacted.Make (Q)
module H = L.H
module GQ = Histgen.Make (Q)

let p = Model.Txn.make ~label:"P" 1
let q = Model.Txn.make ~label:"Q" 2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let feed m e = Result.get_ok (L.step m e)

(* ---------------- clock / bound / horizon ---------------- *)

let test_clock_tracks_max_commit () =
  let m = L.create ~conflict:Q.conflict_hybrid in
  check_bool "initial -inf" true (L.clock m = Hybrid.Xts.Neg_inf);
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  let m = feed m (H.Respond (p, Q.Ok)) in
  let m = feed m (H.Commit (p, 7)) in
  check_bool "clock = 7" true (L.clock m = Hybrid.Xts.Fin 7);
  let m = feed m (H.Invoke (q, Q.Enq 2)) in
  let m = feed m (H.Respond (q, Q.Ok)) in
  let m = feed m (H.Commit (q, 3)) in
  check_bool "clock stays 7" true (L.clock m = Hybrid.Xts.Fin 7)

let test_bound_tracking () =
  let m = L.create ~conflict:Q.conflict_hybrid in
  check_bool "no bound initially" true (L.bound m p = None);
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  check_bool "bound -inf before any commit" true (L.bound m p = Some Hybrid.Xts.Neg_inf);
  let m = feed m (H.Respond (p, Q.Ok)) in
  let m = feed m (H.Commit (p, 5)) in
  check_bool "bound discarded at commit" true (L.bound m p = None);
  (* Q invokes after P committed: its bound is P's timestamp. *)
  let m = feed m (H.Invoke (q, Q.Enq 2)) in
  check_bool "bound = clock" true (L.bound m q = Some (Hybrid.Xts.Fin 5))

let test_horizon () =
  let m = L.create ~conflict:Q.conflict_hybrid in
  check_bool "-inf with nothing" true (L.horizon m = Hybrid.Xts.Neg_inf);
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  let m = feed m (H.Respond (p, Q.Ok)) in
  (* active txn with bound -inf pins the horizon *)
  check_bool "-inf with active" true (L.horizon m = Hybrid.Xts.Neg_inf);
  let m = feed m (H.Commit (p, 5)) in
  (* no active txns: horizon = max committed *)
  check_bool "= max committed" true (L.horizon m = Hybrid.Xts.Fin 5);
  let m = feed m (H.Invoke (q, Q.Enq 2)) in
  (* Q's bound is 5: horizon = min(5, 5) *)
  check_bool "active bound keeps it at 5" true (L.horizon m = Hybrid.Xts.Fin 5)

let test_common_seq () =
  let m = L.create ~conflict:Q.conflict_hybrid in
  let m = feed m (H.Invoke (p, Q.Enq 1)) in
  let m = feed m (H.Respond (p, Q.Ok)) in
  check_int "nothing common yet" 0 (List.length (L.common_seq m));
  let m = feed m (H.Commit (p, 5)) in
  check_int "P's op common after commit" 1 (List.length (L.common_seq m))

(* ---------------- Theorem 24, randomized ---------------- *)

let prop_theorem_24_common_grows =
  QCheck2.Test.make ~name:"Thm 24: common prefix grows monotonically" ~count:150
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let h = GQ.generate rand ~conflict:Q.conflict_hybrid in
      let rec go m prev_common = function
        | [] -> true
        | e :: rest -> (
          match L.step m e with
          | Error _ -> false
          | Ok m' ->
            let common = L.common_seq m' in
            Util.Combinat.is_prefix ~eq:L.H.Seq.equal_op prev_common common
            && go m' common rest)
      in
      go (L.create ~conflict:Q.conflict_hybrid) [] h)

(* Theorem 24 at the trace level: each time the runtime's compacted
   machine folds, it emits a Horizon_advanced / Forgotten event pair
   (the Forgotten payload is the cumulative fold count).  Over random
   concurrent runs the event stream must show the horizon timestamps
   and the forgotten prefix growing monotonically, and the final fold
   event must agree with the object's own counter. *)

module QObj = Runtime.Atomic_obj.Make (Q)

let prop_theorem_24_fold_events =
  QCheck2.Test.make ~name:"Thm 24: fold trace events are monotone" ~count:60
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let tr = Obs.Trace.create ~capacity:(1 lsl 14) () in
      let mgr = Runtime.Manager.create () in
      let obj = QObj.create ~trace:tr ~conflict:Q.conflict_hybrid () in
      (* enqueue-only scripts: never block, always commit, always fold *)
      let scripts =
        List.init 2 (fun d ->
            List.init
              (3 + Random.State.int rand 6)
              (fun k ->
                List.init
                  (1 + Random.State.int rand 3)
                  (fun j -> Q.Enq ((100 * d) + (10 * k) + j))))
      in
      let workers =
        List.map
          (fun script ->
            Domain.spawn (fun () ->
                List.iter
                  (fun ops ->
                    Runtime.Manager.run mgr (fun txn ->
                        List.iter (fun i -> ignore (QObj.invoke obj txn i)) ops))
                  script))
          scripts
      in
      List.iter Domain.join workers;
      let folds =
        List.filter_map
          (fun e ->
            match e.Obs.Trace.event with
            | Obs.Trace.Horizon_advanced ts -> Some (`Horizon ts)
            | Obs.Trace.Forgotten n -> Some (`Forgotten n)
            | _ -> None)
          (Obs.Trace.entries tr)
      in
      let horizons =
        List.filter_map (function `Horizon ts -> Some ts | _ -> None) folds
      in
      let forgotten =
        List.filter_map (function `Forgotten n -> Some n | _ -> None) folds
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      let s = QObj.stats obj in
      strictly_increasing horizons
      && strictly_increasing forgotten
      && List.length horizons = List.length forgotten
      && (match List.rev forgotten with
         | last :: _ -> last = s.QObj.forgotten
         | [] -> s.QObj.forgotten = 0)
      (* with every transaction committed, nothing pins the horizon:
         the whole history must have folded *)
      && s.QObj.forgotten = s.QObj.commits)

(* ---------------- equivalence with the formal machine ---------------- *)

(* Replaying any accepted history must give identical acceptance,
   identical available responses at every point, and a version state
   consistent with the reference machine's common prefix. *)
let prop_compacted_equivalent =
  QCheck2.Test.make ~name:"compacted machine == formal machine" ~count:200
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let h = GQ.generate rand ~conflict:Q.conflict_hybrid in
      let rec go lm cm = function
        | [] -> true
        | e :: rest -> (
          let lr = L.step lm e in
          let cr = C.step cm e in
          match (lr, cr) with
          | Error _, Ok _ | Ok _, Error _ -> false
          | Error a, Error b -> a = b
          | Ok lm', Ok cm' ->
            let same_responses =
              List.for_all
                (fun t ->
                  let la = L.available_responses lm' t in
                  let ca = C.available_responses cm' t in
                  List.length la = List.length ca
                  && List.for_all2 Q.equal_res la ca)
                (List.init 3 (fun i -> Model.Txn.make i))
            in
            let version_consistent =
              (* the version must equal the state reached by the formal
                 machine's common prefix *)
              match
                (C.version_states cm', L.H.Seq.states_after (L.common_seq lm'))
              with
              | [ a ], [ b ] -> Q.equal_state a b
              | a, b -> List.length a = List.length b
            in
            same_responses && version_consistent && go lm' cm' rest)
      in
      go (L.create ~conflict:Q.conflict_hybrid) (C.create ~conflict:Q.conflict_hybrid) h)

(* The same equivalence under a relation that refuses a lot (2PL-RW),
   exercising refusal paths. *)
let prop_compacted_equivalent_rw =
  QCheck2.Test.make ~name:"compacted == formal under 2PL-RW" ~count:150
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let h = GQ.generate rand ~conflict:Q.conflict_rw in
      match (L.run ~conflict:Q.conflict_rw h, C.run ~conflict:Q.conflict_rw h) with
      | Ok _, Ok _ -> true
      | Error (e1, r1), Error (e2, r2) -> e1 = e2 && r1 = r2
      | _ -> false)

(* Committed-state agreement: at every point of a random history, the
   compacted machine's committed state equals the state reached by the
   formal machine's permanent sequence, and a snapshot at the largest
   committed timestamp equals the committed state. *)
let prop_committed_state_agreement =
  QCheck2.Test.make ~name:"committed states agree with the formal machine" ~count:150
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let h = GQ.generate rand ~conflict:Q.conflict_hybrid in
      let rec go lm cm = function
        | [] -> true
        | e :: rest -> (
          match (L.step lm e, C.step cm e) with
          | Ok lm', Ok cm' ->
            let reference = L.H.Seq.states_after (L.permanent_seq lm') in
            let states_equal a b =
              List.length a = List.length b && List.for_all2 Q.equal_state a b
            in
            let committed_ok = states_equal (C.committed_states cm') reference in
            let snapshot_ok =
              (* the newest possible snapshot sees exactly the committed
                 state *)
              match L.clock lm' with
              | Hybrid.Xts.Neg_inf -> true
              | Hybrid.Xts.Fin ts -> (
                match C.states_at cm' ~at:ts with
                | Some ss -> states_equal ss reference
                | None -> false)
            in
            committed_ok && snapshot_ok && go lm' cm' rest
          | Error a, Error b -> a = b
          | _ -> false)
      in
      go (L.create ~conflict:Q.conflict_hybrid) (C.create ~conflict:Q.conflict_hybrid) h)

(* ---------------- out-of-order commits ---------------- *)

(* The runtime delivers commits out of timestamp order when two domains
   draw timestamps and distribute them concurrently; an object then
   rebuilds its committed cache, and every memoised view built on the
   old cache must be rebuilt too.  Histories with late commits reach
   that path; Account's responses depend on the state (Overdraft), so a
   stale view shows up as a different response. *)
module Late (A : Spec.Adt_sig.BOUNDED) = struct
  module L = Hybrid.Lock_machine.Make (A)
  module C = Hybrid.Compacted.Make (A)
  module G = Histgen.Make (A)

  let config = { G.default with txns = 6; steps = 60; late_commits = true }
  let txns = List.init config.G.txns (fun i -> Model.Txn.make i)

  let generate seed ~conflict = G.generate ~config (Random.State.make [| seed |]) ~conflict

  (* Some Commit carries a timestamp below an earlier one. *)
  let out_of_order h =
    let rec go clock = function
      | [] -> false
      | L.H.Commit (_, ts) :: rest -> ts < clock || go (max clock ts) rest
      | _ :: rest -> go clock rest
    in
    go min_int h

  (* Of 200 generated histories, how many commit out of order. *)
  let out_of_order_count ~conflict =
    List.length (List.filter (fun seed -> out_of_order (generate seed ~conflict)) (List.init 200 Fun.id))

  let equivalent ~conflict h =
    let same_states a b =
      let subset x y = List.for_all (fun s -> List.exists (A.equal_state s) y) x in
      subset a b && subset b a
    in
    let rec go lm cm = function
      | [] -> true
      | e :: rest -> (
        match (L.step lm e, C.step cm e) with
        | Error a, Error b -> a = b
        | Ok lm', Ok cm' ->
          List.for_all
            (fun t ->
              let la = L.available_responses lm' t in
              let ca = C.available_responses cm' t in
              List.length la = List.length ca
              && List.for_all2 A.equal_res la ca
              (* the runtime's choice is the first available response *)
              &&
              match (C.pending cm' t, la) with
              | None, _ -> true
              | Some _, first :: _ -> (
                match C.choose_response cm' t with
                | Ok (r, _) -> A.equal_res r first
                | Error _ -> false)
              | Some _, [] -> Result.is_error (C.choose_response cm' t))
            txns
          && same_states (C.committed_states cm') (L.H.Seq.states_after (L.permanent_seq lm'))
          && same_states (C.version_states cm') (L.H.Seq.states_after (L.common_seq lm'))
          && go lm' cm' rest
        | _ -> false)
    in
    go (L.create ~conflict) (C.create ~conflict) h

  let prop name ~conflict =
    QCheck2.Test.make ~name ~count:300
      QCheck2.Gen.(0 -- 1_000_000)
      (fun seed -> equivalent ~conflict (generate seed ~conflict))
end

module LateQ = Late (Q)
module LateA = Late (A)
module LateS = Late (Adt.Semiqueue)

let prop_late_commits_queue =
  LateQ.prop "compacted == formal, late commits, Fifo_queue" ~conflict:Q.conflict_hybrid

let prop_late_commits_account =
  LateA.prop "compacted == formal, late commits, Account" ~conflict:A.conflict_hybrid

(* Fifo_queue and Account have one response per view state; Semiqueue's
   [Rem] has one per distinct element, so this property checks the
   order in which the compacted machine offers several candidates. *)
let prop_late_commits_semiqueue =
  LateS.prop "compacted == formal, late commits, Semiqueue"
    ~conflict:Adt.Semiqueue.conflict_hybrid

(* The generator must actually produce out-of-order commits, or the two
   properties above never leave the in-order path. *)
let test_late_commits_reach_out_of_order () =
  let q = LateQ.out_of_order_count ~conflict:Q.conflict_hybrid in
  let a = LateA.out_of_order_count ~conflict:A.conflict_hybrid in
  check_bool (Printf.sprintf "queue: %d of 200 out of order" q) true (q >= 40);
  check_bool (Printf.sprintf "account: %d of 200 out of order" a) true (a >= 40)

(* ---------------- compaction actually compacts ---------------- *)

let test_forgets_sequential_txns () =
  let m = ref (C.create ~conflict:Q.conflict_hybrid) in
  let apply e = m := Result.get_ok (C.step !m e) in
  for i = 1 to 50 do
    let t = Model.Txn.make i in
    apply (H.Invoke (t, Q.Enq i));
    (match C.choose_response !m t with
    | Ok (_, m') -> m := m'
    | Error _ -> Alcotest.fail "response refused");
    apply (H.Commit (t, i))
  done;
  check_int "all 50 forgotten" 50 (C.forgotten !m);
  check_int "no remembered intentions" 0 (C.remembered !m);
  check_int "no live ops" 0 (C.live_ops !m);
  match C.version_states !m with
  | [ s ] -> check_int "version holds the queue" 50 (List.length s)
  | _ -> Alcotest.fail "expected one version state"

let test_active_txn_blocks_forgetting () =
  let m = ref (C.create ~conflict:Q.conflict_hybrid) in
  let apply e = m := Result.get_ok (C.step !m e) in
  (* P starts but does not finish... *)
  apply (H.Invoke (p, Q.Enq 99));
  (match C.choose_response !m p with
  | Ok (_, m') -> m := m'
  | Error _ -> Alcotest.fail "refused");
  (* ...while other transactions come and go. *)
  for i = 10 to 20 do
    let t = Model.Txn.make i in
    apply (H.Invoke (t, Q.Enq i));
    (match C.choose_response !m t with
    | Ok (_, m') -> m := m'
    | Error _ -> Alcotest.fail "refused");
    apply (H.Commit (t, i))
  done;
  (* P's bound is -inf, so nothing can be forgotten. *)
  check_int "nothing forgotten" 0 (C.forgotten !m);
  check_int "all remembered" 11 (C.remembered !m);
  (* Once P commits, everything folds. *)
  apply (H.Commit (p, 21));
  check_int "everything forgotten" 12 (C.forgotten !m)

let test_abort_releases_horizon () =
  let m = ref (C.create ~conflict:Q.conflict_hybrid) in
  let apply e = m := Result.get_ok (C.step !m e) in
  apply (H.Invoke (p, Q.Enq 1));
  (match C.choose_response !m p with
  | Ok (_, m') -> m := m'
  | Error _ -> Alcotest.fail "refused");
  apply (H.Invoke (q, Q.Enq 2));
  (match C.choose_response !m q with
  | Ok (_, m') -> m := m'
  | Error _ -> Alcotest.fail "refused");
  apply (H.Commit (q, 1));
  check_int "pinned by P" 0 (C.forgotten !m);
  apply (H.Abort p);
  check_int "released by P's abort" 1 (C.forgotten !m)

(* Section 6 exists so that storage stays bounded: with every
   transaction committed, nothing pins the horizon, and the object keeps
   no record of the transactions it folded.  Live heap after 500k
   commits must match the heap after 100k. *)
module AObj = Runtime.Atomic_obj.Make (A)

let test_live_heap_flat () =
  let was_enabled = Obs.Control.enabled () in
  Obs.Control.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Control.set_enabled was_enabled) @@ fun () ->
  let mgr = Runtime.Manager.create () in
  let obj = AObj.create ~conflict:A.conflict_hybrid () in
  let commit n =
    for _ = 1 to n do
      Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke obj txn (A.Credit 1) : A.res))
    done
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  commit 100_000;
  let at_100k = live_words () in
  commit 400_000;
  let at_500k = live_words () in
  (* The object and the manager must still be reachable here, or the
     second measurement would not count them. *)
  ignore (Sys.opaque_identity (obj, mgr));
  check_int "every transaction committed" 500_000 (AObj.stats obj).AObj.commits;
  check_bool
    (Printf.sprintf "live words %d at 100k commits, %d at 500k" at_100k at_500k)
    true
    (abs (at_500k - at_100k) * 10 <= at_100k)

let () =
  Alcotest.run "compaction"
    [
      ( "bookkeeping",
        [
          Alcotest.test_case "clock" `Quick test_clock_tracks_max_commit;
          Alcotest.test_case "bounds" `Quick test_bound_tracking;
          Alcotest.test_case "horizon" `Quick test_horizon;
          Alcotest.test_case "common prefix" `Quick test_common_seq;
        ] );
      ( "theorem-24",
        List.map QCheck_alcotest.to_alcotest
          [ prop_theorem_24_common_grows; prop_theorem_24_fold_events ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compacted_equivalent;
            prop_compacted_equivalent_rw;
            prop_committed_state_agreement;
            prop_late_commits_queue;
            prop_late_commits_account;
            prop_late_commits_semiqueue;
          ]
        @ [
            Alcotest.test_case "late commits reach out-of-order delivery" `Quick
              test_late_commits_reach_out_of_order;
          ] );
      ( "forgetting",
        [
          Alcotest.test_case "sequential transactions fold" `Quick
            test_forgets_sequential_txns;
          Alcotest.test_case "active transaction pins the horizon" `Quick
            test_active_txn_blocks_forgetting;
          Alcotest.test_case "abort releases the horizon" `Quick
            test_abort_releases_horizon;
          Alcotest.test_case "live heap stays flat over 500k commits" `Quick
            test_live_heap_flat;
        ] );
    ]
