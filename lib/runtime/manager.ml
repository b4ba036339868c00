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
   distributed) is a linked list of 64-cell segments.  A committer
   CAS-claims an empty cell (0 -> [claiming] = -1), probing from a
   per-domain offset, then draws, then publishes the timestamp with a
   plain atomic store; retiring stores 0.  The claimed cell {e is} the
   pin.  When every cell of every segment is taken, the claimer makes a
   new segment whose cell 0 is already [claiming] and links it with a
   CAS on the last segment's [next] (losing that CAS, it probes the
   segment that won).  Segments are never unlinked: the set's memory is
   bounded by the peak number of concurrent pins, and there is no pin
   limit.

   Claim happens {e before} the draw, so [stable_time] — which reads the
   allocation state first and then scans every segment, reading each
   segment's [next] after its cells and re-scanning while any claim is
   unresolved — can never miss a drawn-but-undistributed commit: a pin
   it did not see was claimed (or its segment linked) after the scan
   read the allocation state, so its draw started later, and such a
   draw's timestamp exceeds the value returned.

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
   bench gate counts; see Lockstat).  It is the manager's only mutex. *)

(* 0 empty, [claiming], else an in-flight timestamp. *)
type pin = int Atomic.t

type segment = { cells : pin array; next : segment option Atomic.t }

type t = {
  stripe_index : int; (* this manager draws ts ≡ stripe_index (mod stripe_count) *)
  stripe_count : int;
  base : int;
  draws : int Atomic.t; (* local draws so far; k-th draw has ts_of k *)
  observed : int Atomic.t; (* largest adopted foreign timestamp (0 = none) *)
  inflight : segment; (* the first segment of the in-flight set *)
  wal_mutex : Mutex.t; (* draw+append section for WAL configurations *)
  attempts : int Atomic.t;
  commits : int Atomic.t;
  failures : int Atomic.t;
  wal : Wal.Log.t option;
}

exception Durability_lost of string

let m_attempts = Obs.Metrics.counter "txn.attempts"
let m_commits = Obs.Metrics.counter "txn.commits"
let m_aborts = Obs.Metrics.counter "txn.aborts"
let m_durability_lost = Obs.Metrics.counter "txn.durability_lost"
let h_attempt = Obs.Metrics.histogram "txn.attempt_latency"

let segment_cells = 64 (* power of two *)
let claiming = -1

let new_segment () =
  { cells = Array.init segment_cells (fun _ -> Atomic.make 0); next = Atomic.make None }

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
    inflight = new_segment ();
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

(* Claim a cell: probe [seg] from [start] (a per-domain offset, so
   concurrent committers land on distinct cells without coordination),
   then the segments after it; past the last one, link a new segment
   whose cell 0 is already claimed.  Claim, draw, publish — in that
   order; see the header comment for why [stable_time] depends on it. *)
let rec probe seg start i =
  if i < segment_cells then begin
    let c = Array.unsafe_get seg.cells ((start + i) land (segment_cells - 1)) in
    if Atomic.get c = 0 && Atomic.compare_and_set c 0 claiming then c
    else probe seg start (i + 1)
  end
  else
    match Atomic.get seg.next with
    | Some next -> probe next start 0
    | None ->
      let fresh = new_segment () in
      let c = fresh.cells.(0) in
      Atomic.set c claiming;
      if Atomic.compare_and_set seg.next None (Some fresh) then c
      else probe seg start segment_cells

let claim t = probe t.inflight ((Domain.self () :> int) * 13) 0
let retire (pin : pin) = Atomic.set pin 0

(* Pin lookup by timestamp, for the 2PC entry points whose public
   interface names the prepared timestamp only.  Timestamps are unique
   per manager, so the lookup is unambiguous. *)
let find_pin t ts =
  let rec go seg i =
    if i < segment_cells then
      if Atomic.get seg.cells.(i) = ts then seg.cells.(i) else go seg (i + 1)
    else
      match Atomic.get seg.next with
      | Some next -> go next 0
      | None -> invalid_arg "Manager: timestamp not in flight"
  in
  go t.inflight 0

let inflight_count t =
  let rec go seg n =
    let n = Array.fold_left (fun n c -> if Atomic.get c <> 0 then n + 1 else n) n seg.cells in
    match Atomic.get seg.next with Some next -> go next n | None -> n
  in
  go t.inflight 0

(* The smallest published pin at or after cell [i] of [seg], or [lo] if
   none is smaller; [claiming] as soon as any claim is unresolved.  Each
   segment's [next] is read after its cells. *)
let rec min_pin seg i lo =
  if i < segment_cells then begin
    let v = Atomic.get (Array.unsafe_get seg.cells i) in
    if v = claiming then claiming else min_pin seg (i + 1) (if v <> 0 && v < lo then v else lo)
  end
  else match Atomic.get seg.next with Some next -> min_pin next 0 lo | None -> lo

(* The commit watermark.  Read the allocation state (draws, observed)
   {e first}, then scan the pins, re-scanning while any claim is
   unresolved (sentinel): a committer that claimed after its cell was
   scanned, or linked its segment after we read the last [next],
   performs its fetch-and-add after our [draws]/[observed] reads
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
    match min_pin t.inflight 0 max_int with
    | v when v = claiming ->
      Domain.cpu_relax ();
      scan ()
    | v when v <> max_int -> v - 1
    | _ -> ts_of t (max d (need_for t obs) + 1) - 1
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

(* Claim a pin, draw a timestamp into it and, with a WAL, append the
   transaction's record — a [Commit], or with [gtxn] a 2PC [Prepare] —
   returning the timestamp, the pin and the record's LSN (0 without a
   WAL).  Claim before draw, so [stable_time] can never miss a
   drawn-but-undistributed commit.  With a WAL, the append happens
   inside the same mutex-guarded section: the log's commit-record order
   is then exactly the commit-timestamp order, i.e. the hybrid
   serialization order (decided cross-shard commits are the one
   exception — see [decide_commit]; recovery sorts by timestamp and
   never relies on record order).

   Exception-safe: a failing append retires the timestamp before
   re-raising, so a full disk can never wedge [stable_time].  (A failed
   append also means the record is not durably complete — the frame's
   CRC cannot check out — so aborting afterwards is sound.) *)
let pin_and_append t txn gtxn =
  draw_section t (fun () ->
      let pin = claim t in
      let ts = draw t in
      Atomic.set pin ts;
      match t.wal with
      | None -> (ts, pin, 0)
      | Some w -> (
        let txn = Txn_rt.id txn in
        let record =
          match gtxn with
          | None -> Wal.Log.Commit { txn; ts }
          | Some gtxn -> Wal.Log.Prepare { txn; gtxn; ts }
        in
        match Wal.Log.append_lsn w record with
        | lsn -> (ts, pin, lsn)
        | exception e ->
          retire pin;
          raise e))

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
   - append failed inside [pin_and_append]: the record is not durably
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
  match pin_and_append t txn None with
  | exception e ->
    if Obs.Span.enabled () then Obs.Span.txn_abort ~txn:(Txn_rt.id txn);
    Txn_rt.abort txn;
    Atomic.incr t.failures;
    Obs.Metrics.incr m_aborts;
    raise e
  | ts, pin, l -> (
    let durable =
      match t.wal with
      | Some w ->
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
      retire pin;
      Obs.Metrics.incr m_durability_lost;
      raise
        (Durability_lost
           (Printf.sprintf "txn %d (ts %d): commit record appended but not synced: %s"
              (Txn_rt.id txn) ts (Printexc.to_string e)))
    | Ok () ->
      Fun.protect ~finally:(fun () -> retire pin) (fun () -> Txn_rt.commit txn ts);
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
   [gtxn] and append the vote, unforced — the coordinator appends every
   participant's vote before it forces any, then forces each vote's log
   in turn ([Wal.Log.sync_upto]).  The prepared timestamp joins the
   in-flight set and stays there until the decision: [stable_time] —
   and with it every object horizon and checkpoint — cannot advance past
   a prepared-but-undecided transaction.  That is the cross-shard
   stability rule: the decided timestamp is at least the local prepared
   one, so nothing this shard folds or serves as stable can be
   invalidated by the eventual commit. *)
let prepare t txn ~gtxn =
  if Obs.Span.enabled () then
    Obs.Span.prepare ~txn:(Txn_rt.id txn) ~shard:t.stripe_index;
  let ts, _, lsn = pin_and_append t txn (Some gtxn) in
  (ts, lsn)

(* Phase 2, commit: adopt the decided timestamp (max over all
   participants' prepares).  The clock observes the decision (CAS-max
   Lamport merge), the in-flight reservation moves from the prepared to
   the decided timestamp with one atomic store (the stability pin
   transfers without a gap), and the commit record is appended —
   possibly out of local record order, which recovery's sort-by-timestamp
   absorbs.  The record is not forced: the forced decision already
   commits this branch for recovery, and the record becomes durable with
   this log's next sync (any later local commit forces it, since syncs
   are LSN-ordered).  The returned LSN is what the coordinator waits to
   see durable before it forgets the decision.  An append failure raises
   only {e after} the commit events are distributed, because the global
   decision is durable at the coordinator and cannot be un-taken. *)
let decide_commit t txn ~prepared ~ts =
  let pin = find_pin t prepared in
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
        Atomic.set pin ts;
        match t.wal with
        | None -> Ok 0
        | Some w -> (
          try Ok (Wal.Log.append_lsn w (Wal.Log.Commit { txn = Txn_rt.id txn; ts }))
          with e -> Error e))
  in
  if Obs.Span.enabled () then
    Obs.Span.decide_commit ~txn:(Txn_rt.id txn) ~shard:t.stripe_index ~ts;
  Fun.protect ~finally:(fun () -> retire pin) (fun () -> Txn_rt.commit txn ts);
  Atomic.incr t.commits;
  Obs.Metrics.incr m_commits;
  match logged with Ok lsn -> lsn | Error e -> raise e

(* Phase 2, abort: presumed abort — release the prepared reservation and
   notify participants; the Abort record is an unforced courtesy to the
   compactor, exactly as in the single-shard path. *)
let decide_abort t txn ~prepared =
  if Obs.Span.enabled () then
    Obs.Span.decide_abort ~txn:(Txn_rt.id txn) ~shard:t.stripe_index;
  log_abort t txn;
  Txn_rt.abort txn;
  retire (find_pin t prepared);
  Atomic.incr t.failures;
  Obs.Metrics.incr m_aborts

(* One attempt of [body] as [txn].  With [anchor], an aborted attempt
   anchors its transaction before the abort reaches any object, so a
   transaction that lost to it and is woken by that abort finds it still
   live (see Retry.restart_pause). *)
let attempt_once ~anchor t txn body =
  Atomic.incr t.attempts;
  Obs.Metrics.incr m_attempts;
  (* Monotonic, like the trace timestamps: attempt latencies must never
     go negative under a wall-clock adjustment. *)
  let t0 = if Obs.Control.enabled () then Obs.Clock.now_ns () else 0 in
  let observe_latency () =
    if Obs.Control.enabled () then
      Obs.Metrics.observe h_attempt (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0))
  in
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
    Ok v
  | exception Txn_rt.Abort_requested reason ->
    if anchor then Txn_rt.anchor ~priority:(Txn_rt.priority txn);
    abort_txn t txn;
    observe_latency ();
    Error reason
  | exception e ->
    abort_txn t txn;
    raise e

let run_once t body = attempt_once ~anchor:false t (Txn_rt.fresh ()) body

let run t body =
  let first = Txn_rt.fresh () in
  match attempt_once ~anchor:true t first body with
  | Ok v -> v
  | Error _ ->
    (* Every restart keeps the first attempt's priority: wait-die's
       no-starvation argument needs seniority to be stable. *)
    let priority = Txn_rt.priority first in
    Retry.until_commit ~priority (fun () ->
        attempt_once ~anchor:false t (Txn_rt.restart ~priority ()) body)

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
