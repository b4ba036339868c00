(* Regression tests for the lock-free hot-path rework: the splitmix
   jitter avalanche (congruent keys must decorrelate), wait-die on the
   priority captured with the refusal (recycled holder ids must not
   change the verdict), the striped stable_time watermark (an idle shard
   is stable up to the next timestamp it could possibly issue, not just
   its last draw), multi-domain timestamp allocation (residue class,
   uniqueness, monotone watermark under concurrency), and the park/wake
   scheduler rendezvous.  The ENOSPC no-wedge behaviour of the in-flight
   set is covered by test_wal_group, which must stay green against the
   slot-based implementation. *)

module Q = Adt.Fifo_queue
module QObj = Runtime.Atomic_obj.Make (Q)
module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_prio = Alcotest.(check (option int))

(* ---------------- Backoff.jitter (satellite: weak 16-bit mix) ------- *)

(* The seed implementation kept only the 16 low bits of a linear prime
   mix, so keys congruent mod 65536 — e.g. transaction ids from two
   restarts of the same striped workload — got identical jitter on every
   attempt and woke in lockstep.  The avalanche must spread them. *)
let test_jitter_spreads_congruent_keys () =
  let saved = Runtime.Backoff.current_seed () in
  Runtime.Backoff.set_seed 0;
  Fun.protect ~finally:(fun () -> Runtime.Backoff.set_seed saved) @@ fun () ->
  let n = 32 in
  let vals = List.init n (fun i -> Runtime.Backoff.jitter ~key:(i * 65536) ~attempt:3) in
  List.iter (fun v -> check_bool "jitter in [0,1)" true (0.0 <= v && v < 1.0)) vals;
  let distinct = List.length (List.sort_uniq compare vals) in
  check_bool
    (Printf.sprintf "congruent keys decorrelate (%d/%d distinct)" distinct n)
    true (distinct >= 24)

let prop_jitter_range_and_determinism =
  QCheck2.Test.make ~name:"jitter is deterministic and in [0,1)" ~count:200
    QCheck2.Gen.(pair (0 -- 1_000_000) (0 -- 20))
    (fun (key, attempt) ->
      let a = Runtime.Backoff.jitter ~key ~attempt in
      let b = Runtime.Backoff.jitter ~key ~attempt in
      0.0 <= a && a < 1.0 && a = b)

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
    Runtime.Retry.run ~name:"recycled-holder" ~self:requester (fun () ->
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
     Runtime.Retry.run ~name:"older-holder" ~self (fun () ->
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
  let prepared = Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b) in
  check_int "third draw" 9 prepared;
  check_int "prepared pin holds the watermark" 8 (Runtime.Manager.stable_time mgr);
  Runtime.Manager.decide_abort mgr b ~prepared;
  check_int "abort releases the pin" 12 (Runtime.Manager.stable_time mgr)

(* Adopting a foreign decided timestamp (2PC phase 2) Lamport-merges
   into the stripe: the watermark and the next draw both jump past it. *)
let test_decided_adoption_advances_stripe () =
  let mgr = Runtime.Manager.create ~stripe:(1, 4) () in
  let b = Runtime.Txn_rt.fresh () in
  let prepared = Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b) in
  check_int "first draw" 1 prepared;
  (* decided timestamp 15 ≡ 3 (mod 4): another stripe's draw won. *)
  Runtime.Manager.decide_commit mgr b ~prepared ~ts:15;
  check_int "clock observed the decision" 15 (Runtime.Manager.current_time mgr);
  check_int "watermark covers up to the next issuable ts" 16
    (Runtime.Manager.stable_time mgr);
  let b2 = Runtime.Txn_rt.fresh () in
  let p2 = Runtime.Manager.prepare mgr b2 ~gtxn:(Runtime.Txn_rt.id b2) in
  check_int "next draw exceeds the adopted ts, in residue" 17 p2;
  Runtime.Manager.decide_abort mgr b2 ~prepared:p2

(* ---------------- in-flight overflow + allocation races ------------ *)

(* More than 64 simultaneous in-flight commits spill past the slot array
   into the overflow list; the watermark must track overflow pins
   exactly like slot pins through claim (sentinel), publish and retire. *)
let test_overflow_pins_hold_watermark () =
  let mgr = Runtime.Manager.create () in
  let n = 70 in
  let pins =
    List.init n (fun _ ->
        let b = Runtime.Txn_rt.fresh () in
        (b, Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b)))
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

(* The overflow claim-visibility race: a committer past the 64 slots
   used to be invisible to [stable_time] between its claim and its
   publish, so the scan could return a watermark at or above a
   drawn-but-undistributed timestamp.  Four domains keep 20 pins each in
   flight (80 > 64, so claims constantly cross the overflow boundary)
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
                    let ts =
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
              let prepared =
                Runtime.Manager.prepare mgr b ~gtxn:(Runtime.Txn_rt.id b)
              in
              if Atomic.get max_seen >= prepared then Atomic.incr violations;
              if (w + i) mod 3 = 0 then
                Runtime.Manager.decide_commit mgr b ~prepared
                  ~ts:((4 * prepared) + 2)
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

(* Wake-ring wrap-around: a stolen slot left uncleared lets a stealer
   racing a claimed-but-not-yet-stored push on a later lap deliver the
   previous lap's dead waiter — and the fresh waiter is skipped until
   its park timeout.  Drive several laps of the 64-slot ring (5 waiters
   per notify: 4 inline + exactly one ring push) against a concurrent
   thief; every waiter must end up delivered. *)
let test_ring_wrap_steal_no_lost_waiter () =
  let obj = Runtime.Txn_rt.fresh_object_key () in
  let rounds = 500 in
  let per_round = 5 in
  let waiters = ref [] in
  let stop = Atomic.make false in
  let thief =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if not (Runtime.Sched.help ()) then Domain.cpu_relax ()
        done)
  in
  for i = 1 to rounds do
    for j = 1 to per_round do
      waiters := Runtime.Sched.register ~obj ~txn:((i * 10) + j) :: !waiters
    done;
    Runtime.Sched.notify ~obj
  done;
  Atomic.set stop true;
  Domain.join thief;
  (* Drain what the thief left pending; afterwards every waiter must be
     in the signalled state, so its park returns [`Woken] immediately. *)
  while Runtime.Sched.help () do
    ()
  done;
  let woken =
    List.filter (fun w -> Runtime.Sched.park w ~timeout:0.001 = `Woken) !waiters
  in
  check_int "every waiter was delivered" (rounds * per_round) (List.length woken)

(* Park-slot aliasing: slots were keyed on the monotone domain id masked
   to the table size, so a long-lived domain and one spawned exactly 64
   domain-ids later shared a self-pipe — one parker's drain could eat
   the other's wake byte.  Slots are now leased per live domain: hold
   one domain alive, churn exactly 63 short-lived domains (the next
   spawn's id is 64 past the pinned one), and the latecomer must still
   get a distinct slot. *)
let test_park_slots_distinct_across_domain_churn () =
  let pinned_idx = Atomic.make (-1) in
  let release = Atomic.make false in
  let pinned =
    Domain.spawn (fun () ->
        Atomic.set pinned_idx (Runtime.Sched.domain_index ());
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while Atomic.get pinned_idx < 0 do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 63 do
    Domain.join (Domain.spawn (fun () -> ()))
  done;
  let late_idx = Domain.join (Domain.spawn (fun () -> Runtime.Sched.domain_index ())) in
  Atomic.set release true;
  Domain.join pinned;
  check_bool
    (Printf.sprintf "concurrently live domains own distinct park slots (%d vs %d)"
       (Atomic.get pinned_idx) late_idx)
    true
    (Atomic.get pinned_idx <> late_idx)

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

(* ---------------- fairness on one contended object ---------------- *)

(* Two domains, each running the same fixed count of 4-op Credit/Debit
   transactions on one Account through [Manager.run].  Debit/Ok
   conflicts with Debit/Ok, so the domains contend on every other
   operation.  Neither may starve the other: when the first domain has
   finished, the other must be at least a quarter of the way through.
   A ratio of the two domains' progress, so independent of host speed.
   The starvation this guards against came from two sources, both fixed
   in [Atomic_obj]: an invocation whose step was slow to compute lost
   its CAS to the other domain's cheap publishes indefinitely, and the
   other domain's new transactions took a released lock ahead of an
   older waiter. *)
let fairness_txns = 5000
let fairness_rounds = 6

let fairness_round () =
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 1_000_000)));
  let completed = Array.init 2 (fun _ -> Atomic.make 0) in
  let other_at_finish = Atomic.make (-1) in
  let ready = Atomic.make 0 in
  let worker d () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for k = 1 to fairness_txns do
      Runtime.Manager.run mgr (fun txn ->
          for j = 0 to 3 do
            let h = Hashtbl.hash (d, k, j) in
            let amount = 1 + (h / 2 mod 9) in
            let i = if h land 1 = 0 then A.Credit amount else A.Debit amount in
            ignore (AObj.invoke acc txn i : A.res)
          done);
      Atomic.incr completed.(d)
    done;
    ignore (Atomic.compare_and_set other_at_finish (-1) (Atomic.get completed.(1 - d)) : bool)
  in
  (* The main domain is one of the two workers: an idle main domain
     joining every minor collection would pace the other two. *)
  let other = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join other;
  check_int "all committed" ((2 * fairness_txns) + 1)
    (Runtime.Manager.stats mgr).Runtime.Manager.committed;
  Atomic.get other_at_finish

(* Several rounds, each on a fresh manager and account, with
   observability off as in production's lock-free mode: tracing makes
   every update take the object mutex, which hides the contention. *)
let test_two_domain_fairness () =
  let was_enabled = Obs.Control.enabled () in
  Obs.Control.set_enabled false;
  let others =
    Fun.protect ~finally:(fun () -> Obs.Control.set_enabled was_enabled) @@ fun () ->
    List.init fairness_rounds (fun _ -> fairness_round ())
  in
  Printf.printf "fairness: the other domain's progress when the first finished: %s of %d\n"
    (String.concat " " (List.map string_of_int others))
    fairness_txns;
  List.iteri
    (fun k other ->
      check_bool
        (Printf.sprintf "round %d: other domain at >= 25%% when the first finished (%d/%d)" k
           other fairness_txns)
        true
        (4 * other >= fairness_txns))
    others

let () =
  Alcotest.run "hotpath"
    [
      ( "backoff",
        [
          Alcotest.test_case "avalanche spreads congruent keys" `Quick
            test_jitter_spreads_congruent_keys;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_jitter_range_and_determinism ] );
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
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_striped_draws_multicore ] );
      ( "scheduler",
        [
          Alcotest.test_case "park and wake" `Quick test_sched_park_and_wake;
          Alcotest.test_case "timeout backstop" `Quick test_sched_timeout_backstop;
          Alcotest.test_case "cancel is inert" `Quick test_sched_cancel_is_inert;
          Alcotest.test_case "ring wrap loses no waiter" `Quick
            test_ring_wrap_steal_no_lost_waiter;
          Alcotest.test_case "park slots distinct across domain churn" `Quick
            test_park_slots_distinct_across_domain_churn;
          Alcotest.test_case "blocked txn woken by release" `Quick
            test_blocked_txn_woken_by_release;
        ] );
      ( "fairness",
        [ Alcotest.test_case "two domains on one account" `Quick test_two_domain_fairness ] );
    ]
