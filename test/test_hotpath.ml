(* Regression tests for the lock-free hot-path rework: wait-die on the
   priority captured with the refusal (recycled holder ids must not
   change the verdict), the striped stable_time watermark (an idle shard
   is stable up to the next timestamp it could possibly issue, not just
   its last draw), multi-domain timestamp allocation (residue class,
   uniqueness, monotone watermark under concurrency), the park/wake
   scheduler rendezvous, and the restart pause that waits for the
   winner's transaction, and the segmented in-flight set (no pin limit,
   no mutex, more than 64 concurrent durable commits).  The ENOSPC
   no-wedge behaviour of the in-flight set is covered by test_wal_group. *)

module Q = Adt.Fifo_queue
module QObj = Runtime.Atomic_obj.Make (Q)
module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_prio = Alcotest.(check (option int))

(* ---------------- wait-die on the captured priority ---------------- *)

(* The refusal must carry the holder's priority, resolved by the object
   inside the locked/consistent section that observed the conflict. *)
let test_conflict_carries_captured_priority () =
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let holder = Runtime.Txn_rt.fresh ~priority:77 () in
  (match QObj.try_invoke q holder (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "holder's enq should succeed");
  let req = Runtime.Txn_rt.fresh () in
  (match QObj.try_invoke q req (Q.Enq 2) with
  | Error (`Conflict (Some c)) ->
    check_int "holder id" (Runtime.Txn_rt.id holder) c.Runtime.Retry.holder;
    check_prio "captured priority" (Some 77) c.Runtime.Retry.holder_priority
  | _ -> Alcotest.fail "expected a conflict with a known holder");
  Runtime.Txn_rt.abort req;
  Runtime.Txn_rt.abort holder

(* The recycled-holder-id regression: the holder completes between the
   refusal and the wait-die check, and its id is immediately re-used by
   a much older transaction (coordinators register explicit ids, so ids
   genuinely recur).  The old implementation looked the priority up by
   id at check time, resolved the {e new} transaction, and killed a
   requester that should have waited.  The captured priority must make
   the requester survive. *)
let test_wait_die_survives_recycled_holder_id () =
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let holder = Runtime.Txn_rt.fresh ~priority:100 () in
  (match QObj.try_invoke q holder (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "holder's enq should succeed");
  let requester = Runtime.Txn_rt.fresh ~priority:50 () in
  let captured =
    match QObj.try_invoke q requester (Q.Enq 2) with
    | Error (`Conflict (Some c)) -> c
    | _ -> Alcotest.fail "expected a conflict"
  in
  check_prio "refusal captured the live priority" (Some 100)
    captured.Runtime.Retry.holder_priority;
  (* Holder completes; an older transaction takes over its id. *)
  Runtime.Txn_rt.abort holder;
  let recycled =
    Runtime.Txn_rt.fresh ~id:captured.Runtime.Retry.holder ~priority:1 ()
  in
  check_prio "registry now resolves the id to the recycled priority" (Some 1)
    (Runtime.Txn_rt.priority_of_id captured.Runtime.Retry.holder);
  (* Replay the stale refusal through the retry loop.  A live registry
     lookup would compare 50 > 1 and kill the requester; the captured
     priority (100) says wait — and the subsequent re-attempt succeeds
     because the real holder is gone. *)
  let first = ref true in
  let r =
    Runtime.Retry.run ~obj:(QObj.key q) ~name:"recycled-holder" ~self:requester (fun () ->
        if !first then begin
          first := false;
          Error (`Conflict (Some captured))
        end
        else QObj.try_invoke q requester (Q.Enq 2))
  in
  check_bool "requester survived and enqueued" true (r = Q.Ok);
  Runtime.Txn_rt.abort requester;
  Runtime.Txn_rt.abort recycled

(* The policy itself is unchanged: a captured priority older than the
   requester still kills immediately. *)
let test_wait_die_still_dies_on_older_holder () =
  let self = Runtime.Txn_rt.fresh ~priority:50 () in
  let stale = { Runtime.Retry.holder = 424242; holder_priority = Some 10 } in
  (match
     Runtime.Retry.run ~obj:(Runtime.Txn_rt.fresh_object_key ()) ~name:"older-holder" ~self
       (fun () ->
         (Error (`Conflict (Some stale)) : (unit, Runtime.Retry.failure) result))
   with
  | () -> Alcotest.fail "should have died"
  | exception Runtime.Txn_rt.Abort_requested _ -> ());
  Runtime.Txn_rt.abort self

(* ---------------- striped stable_time (satellite: residue bug) ----- *)

(* Stripe (1, 4) issues 1, 5, 9, ...  After committing timestamp 5 with
   nothing in flight, the shard can never issue 6, 7 or 8 — and adopting
   a foreign decided timestamp first pins a prepared one in flight — so
   the watermark must read 8, not 5: a cross-shard wait-till-stable for
   timestamp 7 would otherwise hang forever on an idle shard. *)
let test_striped_idle_watermark () =
  let mgr = Runtime.Manager.create ~stripe:(1, 4) () in
  check_int "initial stable" 0 (Runtime.Manager.stable_time mgr);
  Runtime.Manager.run mgr (fun _ -> ());
  check_int "clock after first commit" 1 (Runtime.Manager.current_time mgr);
  check_int "idle watermark covers the unissuable gap" 4
    (Runtime.Manager.stable_time mgr);
  Runtime.Manager.run mgr (fun _ -> ());
  check_int "clock after second commit" 5 (Runtime.Manager.current_time mgr);
  check_int "idle watermark after ts 5" 8 (Runtime.Manager.stable_time mgr)

(* The default (0, 1) stripe must keep the seed behaviour exactly:
   stable = clock when idle. *)
let test_default_stripe_watermark_unchanged () =
  let mgr = Runtime.Manager.create () in
  check_int "initial stable" 0 (Runtime.Manager.stable_time mgr);
  Runtime.Manager.run mgr (fun _ -> ());
  check_int "stable = clock when idle" 1 (Runtime.Manager.stable_time mgr);
  check_int "clock" 1 (Runtime.Manager.current_time mgr)

(* A prepared-but-undecided transaction pins the watermark below its
   timestamp; the decision releases it. *)
let test_prepared_pin_blocks_watermark () =
  let mgr = Runtime.Manager.create ~stripe:(1, 4) () in
  Runtime.Manager.run mgr (fun _ -> ());
  Runtime.Manager.run mgr (fun _ -> ());
  (* draws so far: 1, 5; idle watermark 8 *)
  let b = Runtime.Txn_rt.fresh () in
  let prepared, _ = Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b) in
  check_int "third draw" 9 prepared;
  check_int "prepared pin holds the watermark" 8 (Runtime.Manager.stable_time mgr);
  Runtime.Manager.decide_abort mgr b ~prepared;
  check_int "abort releases the pin" 12 (Runtime.Manager.stable_time mgr)

(* Adopting a foreign decided timestamp (2PC phase 2) Lamport-merges
   into the stripe: the watermark and the next draw both jump past it. *)
let test_decided_adoption_advances_stripe () =
  let mgr = Runtime.Manager.create ~stripe:(1, 4) () in
  let b = Runtime.Txn_rt.fresh () in
  let prepared, _ = Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b) in
  check_int "first draw" 1 prepared;
  (* decided timestamp 15 ≡ 3 (mod 4): another stripe's draw won. *)
  ignore (Runtime.Manager.decide_commit mgr b ~prepared ~ts:15 : int);
  check_int "clock observed the decision" 15 (Runtime.Manager.current_time mgr);
  check_int "watermark covers up to the next issuable ts" 16
    (Runtime.Manager.stable_time mgr);
  let b2 = Runtime.Txn_rt.fresh () in
  let p2, _ = Runtime.Manager.prepare mgr b2 ~gtxn:(Runtime.Txn_rt.id b2) in
  check_int "next draw exceeds the adopted ts, in residue" 17 p2;
  Runtime.Manager.decide_abort mgr b2 ~prepared:p2

(* ---------------- in-flight overflow + allocation races ------------ *)

(* More than 64 simultaneous in-flight commits spill past the first
   segment of the in-flight set (once an overflow list); the watermark
   must track those pins exactly like the first 64 through claim
   (sentinel), publish and retire. *)
let test_overflow_pins_hold_watermark () =
  let mgr = Runtime.Manager.create () in
  let n = 70 in
  let pins =
    List.init n (fun _ ->
        let b = Runtime.Txn_rt.fresh () in
        (b, fst (Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b))))
  in
  check_int "watermark pinned below the oldest in-flight ts" 0
    (Runtime.Manager.stable_time mgr);
  List.iteri
    (fun i (b, ts) ->
      Runtime.Manager.decide_abort mgr b ~prepared:ts;
      check_int
        (Printf.sprintf "watermark after retiring ts %d" ts)
        (i + 1)
        (Runtime.Manager.stable_time mgr))
    pins

(* The overflow claim-visibility race: a committer past the first 64
   cells used to be invisible to [stable_time] between its claim and
   its publish, so the scan could return a watermark at or above a
   drawn-but-undistributed timestamp.  Four domains keep 20 pins each in
   flight (80 > 64, so claims constantly cross into the second segment)
   and assert, while their own pin is live, that the watermark stays
   strictly below it. *)
let test_overflow_claim_visibility_multicore () =
  let mgr = Runtime.Manager.create () in
  let violations = Atomic.make 0 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              let pins =
                List.init 20 (fun _ ->
                    let b = Runtime.Txn_rt.fresh () in
                    let ts, _ =
                      Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b)
                    in
                    if Runtime.Manager.stable_time mgr >= ts then
                      Atomic.incr violations;
                    (b, ts))
              in
              List.iter
                (fun (b, ts) -> Runtime.Manager.decide_abort mgr b ~prepared:ts)
                pins
            done))
  in
  List.iter Domain.join workers;
  check_int "stable_time never reached a live pin" 0 (Atomic.get violations)

(* ---------------- the segmented in-flight set: no pin limit ---------- *)

(* The manager's in-flight count, read through its introspection
   provider. *)
let inflight_of name =
  match Obs.Registry.snapshot "horizon" with
  | Obs.Json.List providers -> (
    match
      List.find_opt (fun p -> Obs.Json.member "object" p = Some (Obs.Json.String name)) providers
    with
    | Some p -> Option.value ~default:(-1) (Option.bind (Obs.Json.member "inflight" p) Obs.Json.to_int)
    | None -> Alcotest.failf "no horizon provider named %s" name)
  | _ -> Alcotest.fail "horizon channel is not a list"

let with_introspection name mgr f =
  Runtime.Manager.register_introspection ~name mgr;
  Fun.protect ~finally:(fun () -> Obs.Registry.unregister_snapshot ~channel:"horizon" ~name) f

(* 200 prepared pins on one WAL-off manager span four segments and take
   no mutex.  They retire in a stride-7 order, not draw order (a third
   of them by a decided commit at their own timestamp), and after each
   retire the watermark is one below the oldest pin still live. *)
let test_many_pins_no_mutex () =
  let mgr = Runtime.Manager.create () in
  with_introspection "many-pins" mgr @@ fun () ->
  let n = 200 in
  let before = Runtime.Lockstat.snapshot () in
  let pins =
    Array.init n (fun _ ->
        let b = Runtime.Txn_rt.fresh () in
        (b, fst (Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b))))
  in
  check_int "every pin in flight" n (inflight_of "many-pins");
  check_int "watermark below the oldest pin" (snd pins.(0) - 1)
    (Runtime.Manager.stable_time mgr);
  let live = Array.make n true in
  for k = 0 to n - 1 do
    let i = k * 7 mod n in
    let b, ts = pins.(i) in
    if k mod 3 = 0 then ignore (Runtime.Manager.decide_commit mgr b ~prepared:ts ~ts : int)
    else Runtime.Manager.decide_abort mgr b ~prepared:ts;
    live.(i) <- false;
    let oldest = ref None in
    Array.iteri (fun j (_, ts) -> if live.(j) && !oldest = None then oldest := Some ts) pins;
    let expected =
      match !oldest with Some ts -> ts - 1 | None -> Runtime.Manager.current_time mgr
    in
    check_int (Printf.sprintf "watermark after retiring ts %d" ts) expected
      (Runtime.Manager.stable_time mgr)
  done;
  let d = Runtime.Lockstat.diff ~before ~after:(Runtime.Lockstat.snapshot ()) in
  check_int "mutex acquisitions" 0 (Runtime.Lockstat.total d);
  check_int "nothing in flight" 0 (inflight_of "many-pins")

(* Four domains hold 50 pins each at once: 200 live pins need four
   segments, and the domains race to link them on each fresh manager.
   While its pins are live, every domain's watermark reads stay below
   each of them, and no domain takes a mutex. *)
let test_segments_link_multicore () =
  let rounds = 10 and domains = 4 and per_domain = 50 in
  let mgrs = Array.init rounds (fun _ -> Runtime.Manager.create ()) in
  let held = Array.init rounds (fun _ -> Atomic.make 0) in
  let counted = Array.init rounds (fun _ -> Atomic.make false) in
  let peak = Array.make rounds 0 in
  let violations = Atomic.make 0 in
  let await a n =
    while Atomic.get a < n do
      Domain.cpu_relax ()
    done
  in
  Array.iteri
    (fun r mgr -> Runtime.Manager.register_introspection ~name:(Printf.sprintf "segments-%d" r) mgr)
    mgrs;
  let before = Runtime.Lockstat.snapshot () in
  let workers =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            for r = 0 to rounds - 1 do
              let mgr = mgrs.(r) in
              let pins =
                List.init per_domain (fun _ ->
                    let b = Runtime.Txn_rt.fresh () in
                    let ts, _ = Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b) in
                    if Runtime.Manager.stable_time mgr >= ts then Atomic.incr violations;
                    (b, ts))
              in
              Atomic.incr held.(r);
              await held.(r) domains;
              let lowest = List.fold_left (fun m (_, ts) -> min m ts) max_int pins in
              if Runtime.Manager.stable_time mgr >= lowest then Atomic.incr violations;
              if w = 0 then begin
                peak.(r) <- inflight_of (Printf.sprintf "segments-%d" r);
                Atomic.set counted.(r) true
              end;
              while not (Atomic.get counted.(r)) do
                Domain.cpu_relax ()
              done;
              List.iter (fun (b, ts) -> Runtime.Manager.decide_abort mgr b ~prepared:ts) pins
            done))
  in
  List.iter Domain.join workers;
  let d = Runtime.Lockstat.diff ~before ~after:(Runtime.Lockstat.snapshot ()) in
  check_int "mutex acquisitions" 0 (Runtime.Lockstat.total d);
  Array.iteri
    (fun r mgr ->
      let name = Printf.sprintf "segments-%d" r in
      check_int (Printf.sprintf "round %d: pins live at once" r) (domains * per_domain) peak.(r);
      check_int (Printf.sprintf "round %d: nothing in flight" r) 0 (inflight_of name);
      check_int
        (Printf.sprintf "round %d: idle watermark reaches the clock" r)
        (Runtime.Manager.current_time mgr) (Runtime.Manager.stable_time mgr);
      Obs.Registry.unregister_snapshot ~channel:"horizon" ~name)
    mgrs;
  check_int "stable_time never reached a live pin" 0 (Atomic.get violations)

(* More than 64 concurrent commits through a durable group-commit log.
   The first sync leader's hook holds the barrier until 100 committers
   each hold a pin (drawn 1..100, none durable yet, so the smallest is
   1); meanwhile the watermark stays below it.  After release every
   transaction commits, the watermark reaches the clock, and the
   manager took exactly one mutex per commit: its WAL section. *)
let test_hundred_concurrent_commits () =
  let n = 100 in
  let path = Filename.temp_file "hybrid-cc-hotpath" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let w = Wal.Log.create ~group_commit:true path in
  let mgr = Runtime.Manager.create ~wal:w () in
  with_introspection "hundred-commits" mgr @@ fun () ->
  let released = Atomic.make false in
  let peak = ref 0 and violations = ref 0 in
  let deadline = Unix.gettimeofday () +. 60. in
  Wal.Log.set_sync_hook w (fun () ->
      while
        (not (Atomic.get released))
        && inflight_of "hundred-commits" < n
        && Unix.gettimeofday () < deadline
      do
        if Runtime.Manager.stable_time mgr >= 1 then incr violations;
        Thread.delay 0.001
      done;
      if not (Atomic.get released) then begin
        peak := inflight_of "hundred-commits";
        if Runtime.Manager.stable_time mgr >= 1 then incr violations;
        Atomic.set released true
      end);
  let before = Runtime.Lockstat.snapshot () in
  let committers =
    List.init n (fun _ -> Thread.create (fun () -> Runtime.Manager.run mgr (fun _ -> ())) ())
  in
  List.iter Thread.join committers;
  let d = Runtime.Lockstat.diff ~before ~after:(Runtime.Lockstat.snapshot ()) in
  Wal.Log.clear_sync_hook w;
  Wal.Log.close w;
  check_int "committers holding pins at once" n !peak;
  check_int "watermark stayed below the smallest pin" 0 !violations;
  check_int "every transaction committed" n (Runtime.Manager.stats mgr).Runtime.Manager.committed;
  check_int "clock" n (Runtime.Manager.current_time mgr);
  check_int "watermark reaches the clock" n (Runtime.Manager.stable_time mgr);
  check_int "manager mutex acquisitions: one WAL section per commit" n d.Runtime.Lockstat.s_mgr

(* The stale-[observed] draw race: a drawer stalled between its pre-draw
   [observed] read and its fetch-and-add used to issue a count a foreign
   adoption had meanwhile covered — at or below a watermark a concurrent
   scan had already reported from the raised [observed].  The invariant:
   every watermark ever returned stays strictly below every timestamp
   issued afterwards.  A monitor keeps the largest watermark seen;
   workers check their freshly prepared timestamp against it while the
   pin is live.  A third of the branches adopt a decided timestamp far
   above the stripe (in a residue class the stripe never issues, so
   pins stay unique) — the Lamport merge + retire that opens the
   window. *)
let test_draw_revalidates_observed_multicore () =
  let mgr = Runtime.Manager.create ~stripe:(1, 4) () in
  let max_seen = Atomic.make 0 in
  let rec record w =
    let cur = Atomic.get max_seen in
    if w > cur && not (Atomic.compare_and_set max_seen cur w) then record w
  in
  let stop = Atomic.make false in
  let monitor =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          record (Runtime.Manager.stable_time mgr);
          Domain.cpu_relax ()
        done)
  in
  let violations = Atomic.make 0 in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to 150 do
              let b = Runtime.Txn_rt.fresh () in
              let prepared, _ =
                Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b)
              in
              if Atomic.get max_seen >= prepared then Atomic.incr violations;
              if (w + i) mod 3 = 0 then
                ignore
                  (Runtime.Manager.decide_commit mgr b ~prepared
                     ~ts:((4 * prepared) + 2)
                    : int)
              else Runtime.Manager.decide_abort mgr b ~prepared
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop true;
  Domain.join monitor;
  check_int "no watermark ever reached a later-issued timestamp" 0
    (Atomic.get violations)

(* ---------------- multi-domain allocation (satellite: 4-domain) ---- *)

let prop_striped_draws_multicore =
  QCheck2.Test.make
    ~name:"4-domain draws: residue class, uniqueness, monotone watermark" ~count:5
    QCheck2.Gen.(pair (0 -- 3) (20 -- 60))
    (fun (idx, per_domain) ->
      let mgr = Runtime.Manager.create ~stripe:(idx, 4) () in
      let stop = Atomic.make false in
      let monotone = Atomic.make true in
      (* The watermark, sampled concurrently with the committers, must
         never move backwards (snapshot readers poll it upwards). *)
      let monitor =
        Domain.spawn (fun () ->
            let last = ref (-1) in
            while not (Atomic.get stop) do
              let s = Runtime.Manager.stable_time mgr in
              if s < !last then Atomic.set monotone false;
              last := s;
              Domain.cpu_relax ()
            done)
      in
      let workers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                List.init per_domain (fun _ ->
                    Runtime.Manager.commit_txn mgr (Runtime.Txn_rt.fresh ()))))
      in
      let per_worker = List.map Domain.join workers in
      Atomic.set stop true;
      Domain.join monitor;
      let all = List.concat per_worker in
      let residue_ok =
        List.for_all (fun ts -> ts > 0 && ts mod 4 = idx mod 4) all
      in
      let unique_ok =
        List.length (List.sort_uniq compare all) = List.length all
      in
      (* A domain's successive draws are strictly increasing (local
         monotonicity of the fetch-and-add allocation). *)
      let ascending_ok =
        List.for_all
          (fun tss -> List.sort compare tss = tss)
          per_worker
      in
      (* Everything committed and retired: the idle watermark now covers
         every issued timestamp. *)
      let final_ok =
        Runtime.Manager.stable_time mgr >= List.fold_left max 0 all
      in
      residue_ok && unique_ok && ascending_ok && final_ok && Atomic.get monotone)

(* ---------------- scheduler rendezvous ---------------- *)

let test_sched_park_and_wake () =
  let obj = Runtime.Txn_rt.fresh_object_key () in
  let ticket = Runtime.Sched.register ~obj ~txn:1 in
  let waker = Domain.spawn (fun () -> Runtime.Sched.notify ~obj) in
  (* The notify may land before the park; the pre-check makes that a
     fast [`Woken], not a stranded waiter. *)
  let r = Runtime.Sched.park ticket ~timeout:2.0 in
  Domain.join waker;
  check_bool "woken by the release" true (r = `Woken)

let test_sched_timeout_backstop () =
  let obj = Runtime.Txn_rt.fresh_object_key () in
  let ticket = Runtime.Sched.register ~obj ~txn:2 in
  let t0 = Unix.gettimeofday () in
  let r = Runtime.Sched.park ticket ~timeout:0.02 in
  let waited = Unix.gettimeofday () -. t0 in
  check_bool "timed out" true (r = `Timeout);
  check_bool "did not oversleep grossly" true (waited < 1.0);
  (* A timed-out (settled) waiter must not absorb the next release. *)
  Runtime.Sched.notify ~obj

let test_sched_cancel_is_inert () =
  let obj = Runtime.Txn_rt.fresh_object_key () in
  let ticket = Runtime.Sched.register ~obj ~txn:3 in
  Runtime.Sched.cancel ticket;
  (* The lazy sweep drops the cancelled waiter without delivering. *)
  Runtime.Sched.notify ~obj;
  let live = Runtime.Sched.register ~obj ~txn:4 in
  let waker = Domain.spawn (fun () -> Runtime.Sched.notify ~obj) in
  let r = Runtime.Sched.park live ~timeout:2.0 in
  Domain.join waker;
  check_bool "later waiter still wakes" true (r = `Woken)

(* One notify delivers every waiter on the object, with no other domain
   helping: 8 waiters per round (more than any bounded inline batch)
   over 500 rounds, one notify per round.  Each waiter must then be in
   the signalled state, so its park returns [`Woken] at once. *)
let test_one_notify_wakes_every_waiter () =
  let obj = Runtime.Txn_rt.fresh_object_key () in
  let rounds = 500 in
  let per_round = 8 in
  let waiters = ref [] in
  for i = 1 to rounds do
    for j = 1 to per_round do
      waiters := Runtime.Sched.register ~obj ~txn:((i * 10) + j) :: !waiters
    done;
    Runtime.Sched.notify ~obj
  done;
  let woken =
    List.filter (fun w -> Runtime.Sched.park w ~timeout:0.001 = `Woken) !waiters
  in
  check_int "every waiter was delivered" (rounds * per_round) (List.length woken)

(* Two live domains never share a self-pipe, or one parker's drain could
   eat the other's wake byte.  A domain that has run and exited leaves
   its pipe on the free list; the pinned domain takes it, then 63
   short-lived domains churn, and a late domain must still get a pipe
   of its own. *)
let test_park_slots_distinct_across_domain_churn () =
  Domain.join (Domain.spawn (fun () -> ignore (Runtime.Sched.park_fd () : Unix.file_descr)));
  let pinned_fd = Atomic.make None in
  let release = Atomic.make false in
  let pinned =
    Domain.spawn (fun () ->
        Atomic.set pinned_fd (Some (Runtime.Sched.park_fd ()));
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while Atomic.get pinned_fd = None do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 63 do
    Domain.join (Domain.spawn (fun () -> ignore (Runtime.Sched.park_fd () : Unix.file_descr)))
  done;
  let late_fd = Domain.join (Domain.spawn Runtime.Sched.park_fd) in
  Atomic.set release true;
  Domain.join pinned;
  check_bool "concurrently live domains own distinct park slots" true
    (Atomic.get pinned_fd <> Some late_fd)

(* End to end: a transaction blocked on a lock is woken by the holder's
   commit well before its timeout backstop would fire. *)
let test_blocked_txn_woken_by_release () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let holder = Runtime.Txn_rt.fresh ~priority:1 () in
  (match QObj.try_invoke q holder (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "holder's enq should succeed");
  let blocked =
    Domain.spawn (fun () ->
        (* Older than any fresh default priority?  No — make it young so
           wait-die says wait (holder priority 1 is oldest). *)
        Runtime.Manager.run mgr (fun txn -> QObj.invoke q txn (Q.Enq 2)))
  in
  (* Give the blocked transaction time to register and park. *)
  Unix.sleepf 0.05;
  Runtime.Txn_rt.commit holder 1;
  let r = Domain.join blocked in
  check_bool "blocked txn completed after release" true (r = Q.Ok)

(* ---------------- the restart pause ---------------- *)

let parks () = (Runtime.Sched.stats ()).Runtime.Sched.parks

(* Wait until the process has parked more than [since] times in all,
   or for 5 s without that. *)
let wait_for_park since =
  let t0 = Unix.gettimeofday () in
  while parks () <= since && Unix.gettimeofday () -. t0 < 5.0 do
    Unix.sleepf 0.001
  done

(* Run [f] on another domain once the calling domain has parked. *)
let after_park ~since f =
  Domain.spawn (fun () ->
      wait_for_park since;
      f ())

(* The first attempt of [run] dies under wait-die against an older
   holder of [q]'s lock.  The pause after it must park on [q] (the hint
   the death left) until another domain completes the holder, the retry
   must keep the first attempt's priority and find the holder done, and
   the hint must be consumed: a later pause with no death behind it
   returns without parking.  [run] takes the body's transaction handle
   to the object; [complete_holder] commits the holder through the same
   manager. *)
let check_restart_pause ~run ~complete_holder =
  let q = QObj.create ~conflict:Q.conflict_rw () in
  (* Drawn before the body's transaction, so older under wait-die. *)
  let holder = Runtime.Txn_rt.fresh () in
  (match QObj.try_invoke q holder (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "holder's enq should succeed");
  let attempts = ref [] in
  let parks0 = parks () in
  let completer = after_park ~since:parks0 (fun () -> complete_holder holder) in
  let r =
    run (fun txn ->
        attempts := (Runtime.Txn_rt.priority txn, Runtime.Txn_rt.status holder) :: !attempts;
        QObj.invoke q txn (Q.Enq 2))
  in
  Domain.join completer;
  check_bool "committed once the holder completed" true (r = Q.Ok);
  (match !attempts with
  | [ (p2, s2); (p1, s1) ] ->
    check_int "the retry keeps the first attempt's priority" p1 p2;
    check_bool "the first attempt met the live holder" true (s1 = `Active);
    check_bool "the retry began after the holder completed" true (s2 <> `Active)
  | ps -> Alcotest.failf "expected 2 attempts, saw %d" (List.length ps));
  check_bool "the pause parked on the lost object" true (parks () - parks0 >= 1);
  let parks1 = parks () in
  Runtime.Retry.restart_pause ~key:(fst (List.hd !attempts));
  check_int "the hint was consumed" 0 (parks () - parks1)

let test_restart_pause_manager () =
  let mgr = Runtime.Manager.create () in
  check_restart_pause
    ~run:(fun body -> Runtime.Manager.run mgr body)
    ~complete_holder:(fun h -> ignore (Runtime.Manager.commit_txn mgr h : int))

let test_restart_pause_coordinator () =
  let router = Dist.Router.make ~count:1 () in
  let shard = Dist.Router.shard router 0 in
  let coord = Dist.Coordinator.create router in
  check_restart_pause
    ~run:(fun body ->
      Dist.Coordinator.run coord (fun ctx -> body (Dist.Coordinator.branch ctx shard)))
    ~complete_holder:(fun h ->
      ignore (Runtime.Manager.commit_txn (Dist.Shard.mgr shard) h : int));
  Dist.Router.close router

(* Notify [q] in a loop for [secs] seconds. *)
let notify_for q secs =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < secs do
    Runtime.Sched.notify ~obj:(QObj.key q);
    incr n;
    Domain.cpu_relax ()
  done;
  !n

(* The pause outlasts every wake-up while the winner's transaction is
   live, and ends once it is done.  The loser dies against the winner's
   first attempt; another domain notifies the object in a loop, then
   aborts that attempt the way [Manager.run] does (anchor first), has a
   restart of the winner retake the lock, notifies again, and only then
   commits the restart.  The pause must return after that commit and
   no sooner. *)
let test_restart_pause_waits_for_winner () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let winner = Runtime.Txn_rt.fresh () in
  let priority = Runtime.Txn_rt.priority winner in
  (match QObj.try_invoke q winner (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "winner's enq should succeed");
  let loser = Runtime.Txn_rt.fresh () in
  (match QObj.invoke q loser (Q.Enq 2) with
  | _ -> Alcotest.fail "the younger transaction should die under wait-die"
  | exception Runtime.Txn_rt.Abort_requested _ -> ());
  Runtime.Txn_rt.abort loser;
  let restart = Atomic.make None in
  let notifies = ref 0 in
  let other =
    after_park ~since:(parks ()) (fun () ->
        notifies := notify_for q 0.02;
        Runtime.Txn_rt.anchor ~priority;
        Runtime.Manager.abort_txn mgr winner;
        let r = Runtime.Txn_rt.restart ~priority () in
        Atomic.set restart (Some r);
        (match QObj.try_invoke q r (Q.Enq 3) with
        | Ok _ -> ()
        | Error _ -> failwith "the winner's restart should take the lock");
        notifies := !notifies + notify_for q 0.02;
        ignore (Runtime.Manager.commit_txn mgr r : int))
  in
  Runtime.Retry.restart_pause ~key:(Runtime.Txn_rt.priority loser);
  let ended = Option.map Runtime.Txn_rt.status (Atomic.get restart) in
  Domain.join other;
  check_bool "the winner's restart had committed when the pause ended" true
    (match ended with Some (`Committed _) -> true | _ -> false);
  check_bool (Printf.sprintf "the pause outlasted %d notifies" !notifies) true (!notifies > 0);
  check_bool "the anchor was released" false (Runtime.Txn_rt.anchored ~priority)

(* A death that no restart loop caught leaves a hint for another
   transaction: a later pause must not wait for that death's winner.
   Here the winner stays live until another domain completes it
   200 ms later, and a transaction that aborts itself once must restart
   without parking in the meantime. *)
let test_restart_pause_ignores_stale_hint () =
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~conflict:Q.conflict_rw () in
  let winner = Runtime.Txn_rt.fresh () in
  (match QObj.try_invoke q winner (Q.Enq 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "winner's enq should succeed");
  let loser = Runtime.Txn_rt.fresh () in
  (match QObj.invoke q loser (Q.Enq 2) with
  | _ -> Alcotest.fail "the younger transaction should die under wait-die"
  | exception Runtime.Txn_rt.Abort_requested _ -> ());
  Runtime.Txn_rt.abort loser;
  let completer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.2;
        ignore (Runtime.Manager.commit_txn mgr winner : int))
  in
  let parks0 = parks () in
  let attempts = ref 0 in
  Runtime.Manager.run mgr (fun _ ->
      incr attempts;
      if !attempts = 1 then Runtime.Manager.abort_in ());
  let parked = parks () - parks0 in
  Domain.join completer;
  check_int "two attempts" 2 !attempts;
  check_int "the restart did not park" 0 parked

(* Wait-die's progress bound: a transaction that dies against k older
   holders in turn, each completed by another domain while it pauses,
   commits within k + 1 attempts. *)
let test_commits_within_k_plus_one () =
  let k = 3 in
  let mgr = Runtime.Manager.create () in
  let qs = Array.init k (fun _ -> QObj.create ~conflict:Q.conflict_rw ()) in
  let holders =
    Array.map
      (fun q ->
        let h = Runtime.Txn_rt.fresh () in
        (match QObj.try_invoke q h (Q.Enq 0) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "holder's enq should succeed");
        h)
      qs
  in
  let attempts = Atomic.make 0 in
  let completer =
    Domain.spawn (fun () ->
        Array.iteri
          (fun i h ->
            (* Let attempt [i + 1] reach holder [i] and pause on it. *)
            let since = parks () in
            while Atomic.get attempts <= i do
              Domain.cpu_relax ()
            done;
            wait_for_park since;
            Unix.sleepf 0.005;
            ignore (Runtime.Manager.commit_txn mgr h : int))
          holders)
  in
  Runtime.Manager.run mgr (fun txn ->
      Atomic.incr attempts;
      Array.iter (fun q -> ignore (QObj.invoke q txn (Q.Enq 1) : Q.res)) qs);
  Domain.join completer;
  let n = Atomic.get attempts in
  check_bool (Printf.sprintf "committed within k + 1 = %d attempts (%d)" (k + 1) n) true
    (n <= k + 1)

(* ---------------- fairness on one contended object ---------------- *)

(* Two domains (D = 2), each running the same fixed count of 4-op
   Credit/Debit transactions on one Account through [Manager.run].
   Debit/Ok conflicts with Debit/Ok, so the domains contend on every
   other operation.  The assertions are the protocol's progress bounds
   (DESIGN §10), counted, so host load cannot move them:
   - the senior rule: while an invocation waits on a younger lock
     holder, younger transactions take that lock ahead of it at most D
     times — the holder it found (one per other domain) and one that can
     slip in before the waiter has recorded itself as senior;
   - the exclusive publish: one update loses its compare-and-swap to
     other publishes at most [max_lost_cas] + D − 1 times
     ([max_overtaken]), so a step slow to compute is not starved by a
     stream of cheap ones;
   - wait-die with the restart pause: a transaction dies at most D − 1
     times.
   Removing the senior rule breaks the first bound; removing the
   exclusive publish breaks the second.  How far the other domain got
   when the first finished is printed, not asserted: it measures how
   the host scheduled the two domains. *)
let fairness_domains = 2
let fairness_txns = 5000
let fairness_rounds = 6

type fairness = {
  holders : int; (* most younger holders one invocation waited on *)
  attempts : int; (* most attempts one transaction took *)
  overtaken : int; (* AObj's max_overtaken *)
  other_at_finish : int;
}

(* [AObj.invoke] with the distinct younger holders it waits on added to
   [holders]: a refusal by a younger holder lets the invocation wait, a
   refusal by an older one kills it. *)
let counted_invoke acc txn i holders =
  let attempt () =
    match AObj.try_invoke acc txn i with
    | Error (`Conflict (Some { Runtime.Retry.holder; holder_priority = Some p })) as refused
      when Runtime.Txn_rt.priority txn < p ->
      if not (List.mem holder !holders) then holders := holder :: !holders;
      refused
    | outcome -> outcome
  in
  Runtime.Retry.run ~obj:(AObj.key acc) ~name:"fairness" ~self:txn attempt

let fairness_round () =
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 1_000_000)));
  let completed = Array.init fairness_domains (fun _ -> Atomic.make 0) in
  let other_at_finish = Atomic.make (-1) in
  let ready = Atomic.make 0 in
  let worker d () =
    Atomic.incr ready;
    while Atomic.get ready < fairness_domains do
      Domain.cpu_relax ()
    done;
    let most_holders = ref 0 and most_attempts = ref 0 in
    for k = 1 to fairness_txns do
      let attempts = ref 0 in
      Runtime.Manager.run mgr (fun txn ->
          incr attempts;
          for j = 0 to 3 do
            let h = Hashtbl.hash (d, k, j) in
            let amount = 1 + (h / 2 mod 9) in
            let i = if h land 1 = 0 then A.Credit amount else A.Debit amount in
            let holders = ref [] in
            ignore (counted_invoke acc txn i holders : A.res);
            most_holders := max !most_holders (List.length !holders)
          done);
      most_attempts := max !most_attempts !attempts;
      Atomic.incr completed.(d)
    done;
    ignore (Atomic.compare_and_set other_at_finish (-1) (Atomic.get completed.(1 - d)) : bool);
    (!most_holders, !most_attempts)
  in
  (* The main domain is one of the two workers: an idle main domain
     joining every minor collection would pace the other two. *)
  let other = Domain.spawn (worker 1) in
  let h0, a0 = worker 0 () in
  let h1, a1 = Domain.join other in
  check_int "all committed" ((fairness_domains * fairness_txns) + 1)
    (Runtime.Manager.stats mgr).Runtime.Manager.committed;
  {
    holders = max h0 h1;
    attempts = max a0 a1;
    overtaken = (AObj.stats acc).AObj.max_overtaken;
    other_at_finish = Atomic.get other_at_finish;
  }

(* Several rounds, each on a fresh manager and account, with
   observability off as in production's lock-free mode: tracing makes
   every update take the object mutex, which hides the contention. *)
let test_two_domain_fairness () =
  let was_enabled = Obs.Control.enabled () in
  Obs.Control.set_enabled false;
  let rounds =
    Fun.protect ~finally:(fun () -> Obs.Control.set_enabled was_enabled) @@ fun () ->
    List.init fairness_rounds (fun _ -> fairness_round ())
  in
  let show f = String.concat " " (List.map (fun r -> string_of_int (f r)) rounds) in
  Printf.printf
    "fairness: younger holders waited on per invocation (most) %s; CASes lost by one update \
     (most) %s; attempts per transaction (most) %s; the other domain's progress when the first \
     finished %s of %d\n"
    (show (fun r -> r.holders))
    (show (fun r -> r.overtaken))
    (show (fun r -> r.attempts))
    (show (fun r -> r.other_at_finish))
    fairness_txns;
  let d = fairness_domains in
  List.iteri
    (fun k r ->
      check_bool
        (Printf.sprintf "round %d: younger holders one invocation waited on: %d <= D = %d" k
           r.holders d)
        true (r.holders <= d);
      check_bool
        (Printf.sprintf "round %d: CASes one update lost: %d <= max_lost_cas + D - 1 = %d" k
           r.overtaken
           (AObj.max_lost_cas + d - 1))
        true
        (r.overtaken <= AObj.max_lost_cas + d - 1);
      check_bool
        (Printf.sprintf "round %d: deaths per transaction: %d <= D - 1 = %d" k (r.attempts - 1)
           (d - 1))
        true
        (r.attempts - 1 <= d - 1))
    rounds

let () =
  Alcotest.run "hotpath"
    [
      ( "wait-die",
        [
          Alcotest.test_case "refusal captures holder priority" `Quick
            test_conflict_carries_captured_priority;
          Alcotest.test_case "survives recycled holder id" `Quick
            test_wait_die_survives_recycled_holder_id;
          Alcotest.test_case "still dies on older holder" `Quick
            test_wait_die_still_dies_on_older_holder;
        ] );
      ( "stable-time",
        [
          Alcotest.test_case "striped idle watermark" `Quick test_striped_idle_watermark;
          Alcotest.test_case "default stripe unchanged" `Quick
            test_default_stripe_watermark_unchanged;
          Alcotest.test_case "prepared pin blocks watermark" `Quick
            test_prepared_pin_blocks_watermark;
          Alcotest.test_case "decided adoption advances stripe" `Quick
            test_decided_adoption_advances_stripe;
          Alcotest.test_case "overflow pins hold the watermark" `Quick
            test_overflow_pins_hold_watermark;
          Alcotest.test_case "overflow claims visible under contention" `Quick
            test_overflow_claim_visibility_multicore;
          Alcotest.test_case "draw revalidates observed under adoption" `Quick
            test_draw_revalidates_observed_multicore;
          Alcotest.test_case "200 pins take no mutex" `Quick test_many_pins_no_mutex;
          Alcotest.test_case "4 domains link segments" `Quick test_segments_link_multicore;
          Alcotest.test_case "100 concurrent durable commits" `Quick
            test_hundred_concurrent_commits;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_striped_draws_multicore ] );
      ( "scheduler",
        [
          Alcotest.test_case "park and wake" `Quick test_sched_park_and_wake;
          Alcotest.test_case "timeout backstop" `Quick test_sched_timeout_backstop;
          Alcotest.test_case "cancel is inert" `Quick test_sched_cancel_is_inert;
          Alcotest.test_case "one notify wakes every waiter" `Quick
            test_one_notify_wakes_every_waiter;
          Alcotest.test_case "park slots distinct across domain churn" `Quick
            test_park_slots_distinct_across_domain_churn;
          Alcotest.test_case "blocked txn woken by release" `Quick
            test_blocked_txn_woken_by_release;
        ] );
      ( "restart",
        [
          Alcotest.test_case "Manager.run" `Quick test_restart_pause_manager;
          Alcotest.test_case "Coordinator.run" `Quick test_restart_pause_coordinator;
          Alcotest.test_case "waits for the winner" `Quick test_restart_pause_waits_for_winner;
          Alcotest.test_case "k deaths, k + 1 attempts" `Quick test_commits_within_k_plus_one;
          Alcotest.test_case "stale hint ignored" `Quick test_restart_pause_ignores_stale_hint;
        ] );
      ( "fairness",
        [ Alcotest.test_case "two domains on one account" `Quick test_two_domain_fairness ] );
    ]
