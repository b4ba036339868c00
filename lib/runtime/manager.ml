type outcome_stats = { started : int; committed : int; aborted : int }

(* Timestamp allocation is lock-free: instead of a clock guarded by the
   in-flight mutex, the manager counts its draws ([draws], fetch-and-add)
   and maps the count onto its stripe's residue class —

     ts_of k = base + k * stripe_count,
     base    = 0 when stripe_index = 0, stripe_index - stripe_count
               otherwise (so ts_of 1 is the smallest positive member of
               the class; the default (0, 1) stripe draws 1, 2, 3, ...
               exactly like the seed implementation).

   Foreign decided timestamps (2PC, [decide_commit]) Lamport-merge via a
   CAS-max on [observed]; a draw first bumps [draws] past the count
   whose timestamp would not exceed [observed], then fetch-and-adds, so
   every draw that starts after an observe completes exceeds the
   observed timestamp — the transitive leg of precedes ⊆ TS across
   shards, now without a mutex.

   The in-flight set (timestamps drawn, commit not yet fully
   distributed) is a fixed array of per-domain-ish slots: a committer
   CAS-claims an empty slot (sentinel -1), draws, and publishes the
   timestamp with a plain atomic store; retiring stores 0.  Claim
   happens {e before} the draw, so [stable_time] — which reads the
   allocation state first and then scans the slots, re-scanning while
   any claim is unresolved — can never miss a drawn-but-undistributed
   commit: a pin it did not see belongs to a draw that started after the
   scan read the allocation state, and such a draw's timestamp exceeds
   the value returned.  If all slots are taken (more simultaneous
   committers than slots) the loser takes a mutex-guarded overflow list;
   the claim pushes the same [claiming] sentinel into the list {e
   before} drawing (replaced by the timestamp at publish), so an
   unresolved overflow claim is exactly as visible to the scan as an
   unresolved slot claim.

   A draw additionally re-validates [observed] {e after} its
   fetch-and-add: a drawer stalled between its pre-draw [observed] read
   and the FAA can otherwise issue a count that a foreign adoption has
   meanwhile covered — and that a concurrent scan, seeing the raised
   [observed] with no pin yet, already reported as stable.  A count at
   or below the re-read need is discarded (never issued) and redrawn.

   Managers with a WAL keep a mutex around draw + append: the log's
   commit-record order must equal commit-timestamp order (the group
   Wal tests rely on it), which a free-running fetch-and-add cannot
   provide.  That serializes only durable configurations — the WAL-off
   hot path ROADMAP item 2 targets stays mutex-free end to end (the
   bench gate counts; see Lockstat). *)

type pin = Slot of int | Overflow

type t = {
  stripe_index : int; (* this manager draws ts ≡ stripe_index (mod stripe_count) *)
  stripe_count : int;
  base : int;
  draws : int Atomic.t; (* local draws so far; k-th draw has ts_of k *)
  observed : int Atomic.t; (* largest adopted foreign timestamp (0 = none) *)
  slots : int Atomic.t array; (* 0 empty, -1 claiming, else an in-flight ts *)
  overflow_mutex : Mutex.t;
  mutable overflow : int list;
  overflow_count : int Atomic.t;
  wal_mutex : Mutex.t; (* draw+append section for WAL configurations *)
  attempts : int Atomic.t;
  commits : int Atomic.t;
  failures : int Atomic.t;
  wal : Wal.Log.t option;
}

exception Too_many_attempts of string
exception Durability_lost of string

let m_attempts = Obs.Metrics.counter "txn.attempts"
let m_commits = Obs.Metrics.counter "txn.commits"
let m_aborts = Obs.Metrics.counter "txn.aborts"
let m_durability_lost = Obs.Metrics.counter "txn.durability_lost"
let h_attempt = Obs.Metrics.histogram "txn.attempt_latency"

let n_inflight_slots = 64 (* power of two *)
let claiming = -1

let create ?wal ?(stripe = (0, 1)) () =
  let stripe_index, stripe_count = stripe in
  if stripe_count < 1 || stripe_index < 0 || stripe_index >= stripe_count then
    invalid_arg "Manager.create: stripe must satisfy 0 <= index < count";
  {
    stripe_index;
    stripe_count;
    base = (if stripe_index = 0 then 0 else stripe_index - stripe_count);
    draws = Atomic.make 0;
    observed = Atomic.make 0;
    slots = Array.init n_inflight_slots (fun _ -> Atomic.make 0);
    overflow_mutex = Mutex.create ();
    overflow = [];
    overflow_count = Atomic.make 0;
    wal_mutex = Mutex.create ();
    attempts = Atomic.make 0;
    commits = Atomic.make 0;
    failures = Atomic.make 0;
    wal;
  }

let wal t = t.wal

let ts_of t k = t.base + (k * t.stripe_count)
let last_issued t = match Atomic.get t.draws with 0 -> 0 | k -> ts_of t k
let current_time t = max (last_issued t) (Atomic.get t.observed)

let with_overflow t f =
  Lockstat.count_mgr ();
  Mutex.lock t.overflow_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.overflow_mutex) f

(* The smallest draw count whose successor's timestamp exceeds
   [observed]: base + (need+1)*stripe_count > observed. *)
let need_for t observed =
  if observed <= t.base then 0 else (observed - t.base) / t.stripe_count

let rec bump_draws t need =
  let k = Atomic.get t.draws in
  if k < need && not (Atomic.compare_and_set t.draws k need) then bump_draws t need

let rec draw t =
  let obs = Atomic.get t.observed in
  let k = Atomic.get t.draws in
  let need = need_for t obs in
  if k < need then begin
    (* Skip the counts whose timestamps an adopted foreign decision
       already covers (the CAS may lose to a parallel bump or draw —
       re-check either way). *)
    ignore (Atomic.compare_and_set t.draws k need : bool);
    draw t
  end
  else begin
    let c = Atomic.fetch_and_add t.draws 1 + 1 in
    (* Re-validate against [observed] {e after} the fetch-and-add.  The
       pre-check above read a possibly stale [observed]: if a foreign
       decision was adopted (and retired) while we were between that
       read and the FAA, a concurrent [stable_time] — whose own
       [observed] read saw the raised value and whose pin scan found
       nothing, because our claim postdates it — may already have
       reported an idle watermark at or above ts_of c.  Issuing c now
       would place a commit at or below a reported stable watermark.  A
       count the re-read need still covers is therefore discarded
       (never issued): bump [draws] past the new need and redraw.  Any
       scan our FAA {e preceded} instead sees the claimed pin, so every
       issued timestamp stays strictly above every previously returned
       watermark. *)
    let need' = need_for t (Atomic.get t.observed) in
    if c <= need' then begin
      bump_draws t need';
      draw t
    end
    else ts_of t c
  end

(* Lamport merge (CAS-max): adopting a foreign timestamp makes every
   draw that starts after this returns exceed it. *)
let rec observe t ts =
  let cur = Atomic.get t.observed in
  if ts > cur && not (Atomic.compare_and_set t.observed cur ts) then observe t ts

(* ---- the in-flight set ---- *)

let try_claim_slot t =
  (* Start probing at a per-domain offset so concurrent committers land
     on distinct slots without coordination. *)
  let start = (Domain.self () :> int) * 13 land (n_inflight_slots - 1) in
  let rec go i =
    if i >= n_inflight_slots then None
    else
      let idx = (start + i) land (n_inflight_slots - 1) in
      let s = t.slots.(idx) in
      if Atomic.get s = 0 && Atomic.compare_and_set s 0 claiming then Some idx
      else go (i + 1)
  in
  go 0

(* Claim a pin, then draw, then publish — in that order; see the header
   comment for why [stable_time] depends on it.  [publish] is separate
   from [claim] because the WAL path draws under its mutex. *)
let claim t =
  match try_claim_slot t with
  | Some idx -> Slot idx
  | None ->
    (* Overflow claims must be as visible to [stable_time] as slot
       claims: push the [claiming] sentinel into the list {e now}, under
       the mutex, so a scan running between this claim and [publish]
       finds an unresolved entry and re-scans — the slot path's -1
       protocol.  (Issued timestamps are >= 1, so the sentinel is
       unambiguous.)  [overflow_count] turns nonzero only after the
       sentinel is in place: a scan that reads 0 precedes this claim,
       hence precedes the draw, whose timestamp then exceeds the
       scan's watermark. *)
    with_overflow t (fun () ->
        t.overflow <- claiming :: t.overflow;
        Atomic.incr t.overflow_count);
    Overflow

let rec replace_first ~from ~to_ = function
  | [] -> [ to_ ]
  | x :: rest -> if x = from then to_ :: rest else x :: replace_first ~from ~to_ rest

let publish t pin ts =
  match pin with
  | Slot idx -> Atomic.set t.slots.(idx) ts
  | Overflow ->
    with_overflow t (fun () -> t.overflow <- replace_first ~from:claiming ~to_:ts t.overflow)

let retire t pin ts =
  match pin with
  | Slot idx -> Atomic.set t.slots.(idx) 0
  | Overflow ->
    with_overflow t (fun () ->
        t.overflow <- List.filter (fun x -> x <> ts) t.overflow;
        Atomic.decr t.overflow_count)

(* Pin lookup by timestamp, for the 2PC entry points whose public
   interface names the prepared timestamp only.  Timestamps are unique
   per manager, so the scan is unambiguous. *)
let find_pin t ts =
  let rec go i =
    if i >= n_inflight_slots then Overflow
    else if Atomic.get t.slots.(i) = ts then Slot i
    else go (i + 1)
  in
  go 0

(* Move an in-flight pin from [from_ts] to [to_ts] without a gap (the
   2PC decided-timestamp adoption). *)
let repin t ~from_ts ~to_ts =
  match find_pin t from_ts with
  | Slot idx -> Atomic.set t.slots.(idx) to_ts
  | Overflow ->
    with_overflow t (fun () ->
        t.overflow <- to_ts :: List.filter (fun x -> x <> from_ts) t.overflow)

let inflight_count t =
  Array.fold_left (fun n s -> if Atomic.get s <> 0 then n + 1 else n) 0 t.slots
  + Atomic.get t.overflow_count

(* The commit watermark.  Read the allocation state (draws, observed)
   {e first}, then scan the pins, re-scanning while any claim is
   unresolved (sentinel): a committer that claimed after its slot was
   scanned performs its fetch-and-add after our [draws]/[observed] reads
   (program order on its side, monotone atomics on ours), so its
   timestamp is at least the next-draw timestamp computed from the state
   we read — strictly above what we return.  With pins in flight the
   watermark is min(pin) - 1, as before.

   With {e no} pins in flight the seed returned the clock, which is
   wrong under striping: an idle shard 1-of-4 whose last draw was 9 can
   never issue 10, 11 or 12, yet "stable = 9" makes a cross-shard
   wait-till-stable for timestamp 12 hang (and Theorem 24 truncation
   needlessly conservative) — while adopting a foreign decided 11 would
   first require a {e prepared} pin, which the scan would have seen.  So
   idle stability extends to everything below the next timestamp this
   shard could possibly issue or adopt: next_draw(draws, observed) - 1.
   For the default (0, 1) stripe that is exactly the old clock value. *)
let stable_time t =
  let rec scan () =
    let d = Atomic.get t.draws in
    let obs = Atomic.get t.observed in
    let lo = ref max_int in
    let unresolved = ref false in
    Array.iter
      (fun s ->
        let v = Atomic.get s in
        if v = claiming then unresolved := true else if v <> 0 && v < !lo then lo := v)
      t.slots;
    (* Overflow pins follow the same sentinel protocol as slots: a claim
       pushed [claiming] before its draw, so an unresolved entry forces
       a re-scan exactly like an unresolved slot. *)
    if Atomic.get t.overflow_count <> 0 then
      with_overflow t (fun () ->
          List.iter
            (fun x ->
              if x = claiming then unresolved := true else if x < !lo then lo := x)
            t.overflow);
    if !unresolved then begin
      Domain.cpu_relax ();
      scan ()
    end
    else if !lo <> max_int then !lo - 1
    else ts_of t (max d (need_for t obs) + 1) - 1
  in
  scan ()

(* Serialize the draw+append section for WAL configurations (and for
   Lockstat's forced-slow baseline mode, which emulates the pre-rework
   mutex-guarded draw even without a WAL). *)
let draw_section t f =
  if Option.is_some t.wal || Lockstat.force_slow () then begin
    Lockstat.count_mgr ();
    Mutex.lock t.wal_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.wal_mutex) f
  end
  else f ()

(* Draw a timestamp and pin it in flight — claim before draw, so
   [stable_time] can never miss a drawn-but-undistributed commit.  With
   a WAL, the commit record is appended inside the same mutex-guarded
   section: the log's commit-record order is then exactly the
   commit-timestamp order, i.e. the hybrid serialization order (decided
   cross-shard commits are the one exception — see [decide_commit];
   recovery sorts by timestamp and never relies on record order).
   Returns the commit record's LSN alongside the timestamp — the handle
   [attempt_once] passes to [Wal.Log.sync_upto], this transaction's
   durability point.

   Exception-safe: a failing append retires the timestamp before
   re-raising, so a full disk can never wedge [stable_time].  (A failed
   append also means the commit record is not durably complete — the
   frame's CRC cannot check out — so aborting afterwards is sound.) *)
let begin_commit t txn =
  draw_section t (fun () ->
      let pin = claim t in
      let ts = draw t in
      publish t pin ts;
      match t.wal with
      | None -> (ts, pin, None)
      | Some w -> (
        match Wal.Log.append_lsn w (Wal.Log.Commit { txn = Txn_rt.id txn; ts }) with
        | lsn -> (ts, pin, Some (w, lsn))
        | exception e ->
          retire t pin ts;
          raise e))

let end_commit t pin ts = retire t pin ts

(* Abort records are an optimization, not a correctness requirement:
   recovery discards any intentions without a commit record, so a lost
   abort record only costs the log compactor retained bytes. *)
let log_abort t txn =
  match t.wal with
  | Some w -> Wal.Log.append w (Wal.Log.Abort { txn = Txn_rt.id txn })
  | None -> ()

(* The full local commit path for an externally managed handle (the
   bodies of [attempt_once] and the coordinator's single-shard fast
   path).  Three exits, in-flight timestamp retired on every one:
   - append failed inside [begin_commit]: the record is not durably
     complete, so the attempt aborts like any other failure;
   - [sync_upto] failed: the record was appended and {e may} be on
     disk, so neither commit nor abort can be reported — the timestamp
     is retired and [Durability_lost] raised (crash-equivalent: no
     commit/abort event is distributed, and recovery decides the
     outcome from the log);
   - sync returned: the commit is durable, distribute it ([Fun.protect]
     retires the timestamp even if a participant's [on_commit]
     raises). *)
let commit_txn t txn =
  match begin_commit t txn with
  | exception e ->
    if Obs.Span.enabled () then Obs.Span.txn_abort ~txn:(Txn_rt.id txn);
    Txn_rt.abort txn;
    Atomic.incr t.failures;
    Obs.Metrics.incr m_aborts;
    raise e
  | ts, pin, lsn -> (
    let durable =
      match lsn with
      | Some (w, l) ->
        (* Append and sync-wait marks bracket the group-commit barrier:
           the flight span's commit phase starts at the append, and the
           sync window isolates time spent waiting on the durability
           point ([sync_upto]) from the rest of the commit path. *)
        if Obs.Span.enabled () then begin
          Obs.Span.append ~txn:(Txn_rt.id txn) ~lsn:l;
          Obs.Span.sync_wait ~txn:(Txn_rt.id txn) ~lsn:l
        end;
        let r = try Ok (Wal.Log.sync_upto w l) with e -> Error e in
        if Obs.Span.enabled () then Obs.Span.sync_done ~txn:(Txn_rt.id txn);
        r
      | None -> Ok ()
    in
    match durable with
    | Error e ->
      end_commit t pin ts;
      Obs.Metrics.incr m_durability_lost;
      raise
        (Durability_lost
           (Printf.sprintf "txn %d (ts %d): commit record appended but not synced: %s"
              (Txn_rt.id txn) ts (Printexc.to_string e)))
    | Ok () ->
      Fun.protect ~finally:(fun () -> end_commit t pin ts) (fun () -> Txn_rt.commit txn ts);
      Atomic.incr t.commits;
      Obs.Metrics.incr m_commits;
      if Obs.Span.enabled () then Obs.Span.txn_commit ~txn:(Txn_rt.id txn) ~ts;
      ts)

let abort_txn t txn =
  log_abort t txn;
  if Obs.Span.enabled () then Obs.Span.txn_abort ~txn:(Txn_rt.id txn);
  Txn_rt.abort txn;
  Atomic.incr t.failures;
  Obs.Metrics.incr m_aborts

(* ---- two-phase commit participant entry points (see Dist) ---- *)

(* Phase 1: draw this shard's hybrid timestamp for global transaction
   [gtxn] and force the vote.  The prepared timestamp joins the
   in-flight set and stays there until the decision: [stable_time] — and
   with it every object horizon and checkpoint — cannot advance past a
   prepared-but-undecided transaction.  That is the cross-shard
   stability rule: the decided timestamp is at least the local prepared
   one, so nothing this shard folds or serves as stable can be
   invalidated by the eventual commit. *)
let prepare t txn ~gtxn =
  if Obs.Span.enabled () then
    Obs.Span.prepare ~txn:(Txn_rt.id txn) ~shard:t.stripe_index;
  let ts, pin, lsn =
    draw_section t (fun () ->
        let pin = claim t in
        let ts = draw t in
        publish t pin ts;
        match t.wal with
        | None -> (ts, pin, None)
        | Some w -> (
          match
            Wal.Log.append_lsn w (Wal.Log.Prepare { txn = Txn_rt.id txn; gtxn; ts })
          with
          | lsn -> (ts, pin, Some (w, lsn))
          | exception e ->
            retire t pin ts;
            raise e))
  in
  (match lsn with
  | Some (w, l) -> (
    try Wal.Log.sync_upto w l
    with e ->
      (* The vote may or may not be on disk; either way this shard never
         acked, the coordinator will not decide commit, and recovery
         presumes abort — so retiring the timestamp and failing the
         prepare is sound. *)
      retire t pin ts;
      raise e)
  | None -> ());
  if Obs.Span.enabled () then
    Obs.Span.prepared ~txn:(Txn_rt.id txn) ~shard:t.stripe_index ~ts;
  ts

(* Phase 2, commit: adopt the decided timestamp (max over all
   participants' prepares).  The clock observes the decision (CAS-max
   Lamport merge), the in-flight reservation moves from the prepared to
   the decided timestamp with one atomic store (the stability pin
   transfers without a gap), and the commit record is appended —
   possibly out of local record order, which recovery's sort-by-timestamp
   absorbs.  The record is forced before returning, so a return is the
   durable ack the coordinator needs before it may forget the decision;
   a sync failure raises only {e after} the commit events are
   distributed, because the global decision is already durable at the
   coordinator and cannot be un-taken. *)
let decide_commit t txn ~prepared ~ts =
  let logged =
    draw_section t (fun () ->
        (* Observe {e before} repinning: once the pin sits at the
           decided timestamp it can become the scan minimum, so a
           watermark of [ts - 1] may be reported — every draw issued
           after that point must already exceed it, which the raised
           [observed] (plus the drawer's post-FAA re-validation)
           guarantees.  In between, the pin still holds the smaller
           prepared timestamp, keeping scans conservative. *)
        observe t ts;
        repin t ~from_ts:prepared ~to_ts:ts;
        match t.wal with
        | None -> Ok None
        | Some w -> (
          try Ok (Some (w, Wal.Log.append_lsn w (Wal.Log.Commit { txn = Txn_rt.id txn; ts })))
          with e -> Error e))
  in
  if Obs.Span.enabled () then
    Obs.Span.decide_commit ~txn:(Txn_rt.id txn) ~shard:t.stripe_index ~ts;
  let pin = find_pin t ts in
  Fun.protect ~finally:(fun () -> retire t pin ts) (fun () -> Txn_rt.commit txn ts);
  Atomic.incr t.commits;
  Obs.Metrics.incr m_commits;
  match logged with
  | Ok None -> ()
  | Ok (Some (w, l)) -> Wal.Log.sync_upto w l
  | Error e -> raise e

(* Phase 2, abort: presumed abort — release the prepared reservation and
   notify participants; the Abort record is an unforced courtesy to the
   compactor, exactly as in the single-shard path. *)
let decide_abort t txn ~prepared =
  if Obs.Span.enabled () then
    Obs.Span.decide_abort ~txn:(Txn_rt.id txn) ~shard:t.stripe_index;
  log_abort t txn;
  Txn_rt.abort txn;
  retire t (find_pin t prepared) prepared;
  Atomic.incr t.failures;
  Obs.Metrics.incr m_aborts

let attempt_once ?priority t body =
  Atomic.incr t.attempts;
  Obs.Metrics.incr m_attempts;
  (* Monotonic, like the trace timestamps: attempt latencies must never
     go negative under a wall-clock adjustment. *)
  let t0 = if Obs.Control.enabled () then Obs.Clock.now_ns () else 0 in
  let observe_latency () =
    if Obs.Control.enabled () then
      Obs.Metrics.observe h_attempt (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0))
  in
  let txn = Txn_rt.fresh ?priority () in
  if Obs.Span.enabled () then
    Obs.Span.txn_begin ~txn:(Txn_rt.id txn) ~shard:t.stripe_index;
  match body txn with
  | v ->
    (* Draw the timestamp before any commit event becomes visible (see
       the interface comment), and keep it in the in-flight set until
       every participant has seen the commit so snapshot readers can
       wait for a stable watermark.  With a WAL attached the commit
       record is forced to stable storage before any commit event is
       distributed — the write-ahead rule: once any object acts on the
       commit, a crash replays it.  The durability point is explicit:
       this transaction is committed iff [commit_txn] returned (see its
       exit analysis above). *)
    let _ts : int = commit_txn t txn in
    observe_latency ();
    Ok (v, Txn_rt.priority txn)
  | exception Txn_rt.Abort_requested reason ->
    abort_txn t txn;
    observe_latency ();
    Error (reason, Txn_rt.priority txn)
  | exception e ->
    abort_txn t txn;
    raise e

let run_once t body =
  match attempt_once t body with
  | Ok (v, _) -> Ok v
  | Error (reason, _) -> Error reason

let run ?(max_attempts = 1000) t body =
  (* A restarted transaction keeps its first attempt's priority:
     wait-die's no-starvation argument needs seniority to be stable.
     The restart delay backs off exponentially with jitter keyed on
     that stable priority, so the losers of one conflict spread out
     instead of re-colliding in lockstep (see Retry.restart_pause). *)
  let rec go attempt priority last_reason =
    if attempt >= max_attempts then
      raise
        (Too_many_attempts
           (Printf.sprintf "transaction failed %d times; last: %s" attempt last_reason))
    else
      match attempt_once ?priority t body with
      | Ok (v, _) -> v
      | Error (reason, prio) ->
        (* The restarted attempt gets a fresh transaction id, so the
           pause is keyed on the stable priority — the one id every
           attempt of this transaction shares. *)
        Retry.restart_pause ~key:prio ~attempt;
        go (attempt + 1) (Some prio) reason
  in
  go 0 None "never attempted"

let abort_in ?(reason = "explicit abort") () = raise (Txn_rt.Abort_requested reason)

let stats t =
  {
    started = Atomic.get t.attempts;
    committed = Atomic.get t.commits;
    aborted = Atomic.get t.failures;
  }

(* ---- live introspection ---- *)

let clock_json ?(name = "manager") t () =
  Obs.Json.Obj
    [
      ("object", Obs.Json.String name);
      ("clock", Obs.Json.Int (current_time t));
      ("stable_time", Obs.Json.Int (stable_time t));
      ("inflight", Obs.Json.Int (inflight_count t));
      ("attempts", Obs.Json.Int (Atomic.get t.attempts));
      ("commits", Obs.Json.Int (Atomic.get t.commits));
      ("aborts", Obs.Json.Int (Atomic.get t.failures));
    ]

let register_introspection ?(name = "manager") t =
  Obs.Registry.register_snapshot ~channel:"horizon" ~name (clock_json ~name t);
  let labels = [ ("mgr", name) ] in
  Obs.Gauge.callback ~labels "txn_clock" (fun () -> float_of_int (current_time t));
  (* Commits whose timestamp is drawn but whose events are still being
     distributed: the gap between the clock and the stable watermark
     snapshot readers wait behind. *)
  Obs.Gauge.callback ~labels "txn_inflight" (fun () -> float_of_int (inflight_count t))
