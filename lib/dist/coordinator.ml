module Manager = Runtime.Manager
module Txn_rt = Runtime.Txn_rt

type step =
  | Executed
  | Prepared of int
  | Decided of Model.Timestamp.t
  | Acked of int

type t = {
  router : Router.t;
  dlog : Decision_log.t option;
  attempts : int Atomic.t;
  commits : int Atomic.t;
  cross_commits : int Atomic.t;
  aborts : int Atomic.t;
  ack_failures : int Atomic.t;
  cross_sync_waits : int Atomic.t;
  mutable on_step : step -> unit;
}

type ctx = {
  coord : t;
  gid : int;
  prio : int;
  restart : bool; (* branches are Txn_rt restarts: a commit releases the anchor *)
  mutable branches : (int * Txn_rt.t) list; (* shard index -> branch; newest first *)
}

type stats = {
  c_attempts : int;
  c_commits : int;
  c_cross_commits : int;
  c_aborts : int;
  c_ack_failures : int;
  c_cross_sync_waits : int;
}

let m_cross_commits = Obs.Metrics.counter "dist.cross_commits"
let m_cross_aborts = Obs.Metrics.counter "dist.aborts"

let create ?dlog router =
  {
    router;
    dlog;
    attempts = Atomic.make 0;
    commits = Atomic.make 0;
    cross_commits = Atomic.make 0;
    aborts = Atomic.make 0;
    ack_failures = Atomic.make 0;
    cross_sync_waits = Atomic.make 0;
    on_step = ignore;
  }

let router t = t.router
let set_step_hook t f = t.on_step <- f
let clear_step_hook t = t.on_step <- ignore

let stats t =
  {
    c_attempts = Atomic.get t.attempts;
    c_commits = Atomic.get t.commits;
    c_cross_commits = Atomic.get t.cross_commits;
    c_aborts = Atomic.get t.aborts;
    c_ack_failures = Atomic.get t.ack_failures;
    c_cross_sync_waits = Atomic.get t.cross_sync_waits;
  }

let id ctx = ctx.gid

(* Every branch of one global transaction shares the global id (traces
   stitch by it; wait-die sees one transaction) and the global priority
   (seniority must not depend on which shard a conflict happens at). *)
let branch ctx shard =
  let si = Shard.index shard in
  match List.assoc_opt si ctx.branches with
  | Some b -> b
  | None ->
    let b =
      if ctx.restart then Txn_rt.restart ~id:ctx.gid ~priority:ctx.prio ()
      else Txn_rt.fresh ~id:ctx.gid ~priority:ctx.prio ()
    in
    ctx.branches <- (si, b) :: ctx.branches;
    b

let outcome t gtxn =
  match t.dlog with None -> None | Some d -> Decision_log.outcome d gtxn

let mgr_of t si = Shard.mgr (Router.shard t.router si)
let note_abort t gid = Option.iter (fun d -> Decision_log.note_abort d ~gtxn:gid) t.dlog

let record_abort t gid =
  Atomic.incr t.aborts;
  Obs.Metrics.incr m_cross_aborts;
  note_abort t gid

(* The [(log, lsn)] positions of records the participants appended; a
   shard without a WAL has none. *)
let positions t recs =
  List.filter_map
    (fun (si, lsn) -> Option.map (fun w -> (w, lsn)) (Manager.wal (mgr_of t si)))
    recs

(* Phase 1: every participant appends its vote, in first-touch order,
   before any is waited on; then each vote's log is forced in the same
   order, on the committing thread — one wait per participant log,
   stopping at the first failure.  A vote that fails to append or to
   force aborts the global transaction: every appended vote gets a
   decide-abort (releasing its stability pin; recovery presumes a vote
   it finds undecided aborted), the other branches plain aborts.  The
   [prepared] span marks are emitted after the last force, and the step
   hook is called only once every vote is durable and outside the
   exception match — a raising hook models a coordinator crash and must
   leave every participant exactly as the protocol did (prepared,
   pinned, undecided). *)
let phase1 t ctx parts =
  let rec append voted = function
    | [] -> Ok (List.rev voted)
    | (si, b) :: rest -> (
      match Manager.prepare (mgr_of t si) b ~gtxn:ctx.gid with
      | pts, lsn -> append ((si, b, pts, lsn) :: voted) rest
      | exception e ->
        List.iter (fun (sj, bj) -> Manager.abort_txn (mgr_of t sj) bj) ((si, b) :: rest);
        Error (e, voted))
  in
  let forced =
    match append [] parts with
    | Error _ as err -> err
    | Ok votes -> (
      let durable = positions t (List.map (fun (si, _, _, lsn) -> (si, lsn)) votes) in
      match List.iter (fun (w, lsn) -> Wal.Log.sync_upto w lsn) durable with
      | () -> Ok (votes, List.length durable)
      | exception e -> Error (e, votes))
  in
  match forced with
  | Error (e, voted) ->
    List.iter (fun (si, b, pts, _) -> Manager.decide_abort (mgr_of t si) b ~prepared:pts) voted;
    Error e
  | Ok (votes, _) as ok ->
    if Obs.Span.enabled () then
      List.iter (fun (si, b, pts, _) -> Obs.Span.prepared ~txn:(Txn_rt.id b) ~shard:si ~ts:pts) votes;
    List.iter (fun (si, _, _, _) -> t.on_step (Prepared si)) votes;
    ok

let two_phase t ctx parts =
  (* From here the span is cross-shard: every branch carries the global
     id, so the per-shard prepare/decide marks emitted by the managers
     stitch into this one flight span. *)
  if Obs.Span.enabled () then Obs.Span.cross_begin ~txn:ctx.gid;
  match phase1 t ctx parts with
  | Error e ->
    if Obs.Span.enabled () then Obs.Span.cross_abort ~txn:ctx.gid;
    record_abort t ctx.gid;
    raise e
  | Ok (votes, vote_waits) -> (
    (* The decided timestamp: max over the participants' prepares.  It
       is one of the prepared timestamps, so it was drawn exactly once,
       from exactly one shard's stripe — globally unique — and it is at
       least every participant's prepared timestamp, so no participant's
       stability pin or previously observed commit is overtaken. *)
    let ts = List.fold_left (fun acc (_, _, pts, _) -> max acc pts) 0 votes in
    let decided =
      match t.dlog with
      | None -> Ok ()
      | Some d -> ( try Ok (Decision_log.decide d ~gtxn:ctx.gid ~ts) with e -> Error e)
    in
    match decided with
    | Error e ->
      (* The Decide record's fate on disk is unknown: committing could
         disagree with a recovery that finds no record, aborting with
         one that does.  Crash-equivalent, like a single-shard
         [Durability_lost]: no outcome is distributed, the prepared
         pins stay (recovery from the logs resolves them), and the
         failure surfaces to the caller. *)
      raise
        (Manager.Durability_lost
           (Printf.sprintf "gtxn %d (ts %d): decision appended but not synced: %s" ctx.gid
              ts (Printexc.to_string e)))
    | Ok () ->
      (* The forced Decide record is the global commit point.  Phase 2
         waits on nothing: each participant appends its Commit record
         unforced, and the decision log keeps the decision until every
         one of those records is durable. *)
      if Obs.Span.enabled () then Obs.Span.decide ~txn:ctx.gid ~ts;
      t.on_step (Decided ts);
      let ack_failed = ref false in
      let commits =
        List.filter_map
          (fun (si, b, pts, _) ->
            let lsn =
              try Some (Manager.decide_commit (mgr_of t si) b ~prepared:pts ~ts)
              with _ ->
                (* Commit applied in memory; only this shard's commit
                   record is missing.  The decision log already commits
                   the transaction for recovery — but it must not be
                   forgotten. *)
                ack_failed := true;
                Atomic.incr t.ack_failures;
                None
            in
            t.on_step (Acked si);
            Option.map (fun l -> (si, l)) lsn)
          votes
      in
      if not !ack_failed then
        Option.iter (fun d -> Decision_log.acked d ~gtxn:ctx.gid (positions t commits)) t.dlog;
      (* The critical path's waits: one per vote, then the decision. *)
      let waits = vote_waits + Bool.to_int (Option.is_some t.dlog) in
      ignore (Atomic.fetch_and_add t.cross_sync_waits waits : int);
      Atomic.incr t.commits;
      Atomic.incr t.cross_commits;
      Obs.Metrics.incr m_cross_commits;
      if Obs.Span.enabled () then Obs.Span.cross_commit ~txn:ctx.gid ~ts)

(* One attempt of [body].  [priority] is the first attempt's priority
   for a restart.  With [anchor], an aborted attempt anchors its
   transaction before any branch's abort is delivered (see
   Manager.run).  The attempt holds its id's registry entry while the
   body runs, so every branch joins it, and drops the hold before any
   branch completes: losers woken by a release must find it gone. *)
let attempt_once ~anchor ?priority t body =
  Atomic.incr t.attempts;
  let gid = Txn_rt.fresh_id ?priority () in
  let ctx =
    match priority with
    | None -> { coord = t; gid; prio = gid; restart = false; branches = [] }
    | Some prio -> { coord = t; gid; prio; restart = true; branches = [] }
  in
  (* 0xffff: no single home stripe — this is a coordinator-side span.
     Each branch's marks (all carrying [gid]) fill in the shards. *)
  if Obs.Span.enabled () then Obs.Span.txn_begin ~txn:gid ~shard:0xffff;
  let abort_all () =
    List.iter (fun (si, b) -> Manager.abort_txn (mgr_of t si) b) ctx.branches;
    (* Branch aborts already closed the span when branches exist; this
       covers a body that failed before touching any shard. *)
    if Obs.Span.enabled () then Obs.Span.cross_abort ~txn:gid;
    record_abort t gid
  in
  match body ctx with
  | exception Txn_rt.Abort_requested reason ->
    if anchor then Txn_rt.anchor ~priority:ctx.prio;
    Txn_rt.release_id gid;
    abort_all ();
    Error (reason, ctx.prio)
  | exception e ->
    Txn_rt.release_id gid;
    abort_all ();
    raise e
  | v -> (
    Txn_rt.release_id gid;
    t.on_step Executed;
    (* Branches that recorded nothing have nothing to prepare or redo;
       they just release their handle (and their share of the id). *)
    let parts, empties =
      List.partition (fun (_, b) -> Txn_rt.participant_count b > 0) (List.rev ctx.branches)
    in
    List.iter (fun (_, b) -> Txn_rt.abort b) empties;
    match parts with
    | [] ->
      (* Read-nothing transaction: no timestamp was ever drawn. *)
      if Obs.Span.enabled () then Obs.Span.txn_commit ~txn:gid ~ts:0;
      Atomic.incr t.commits;
      Ok v
    | [ (si, b) ] ->
      (* Single-shard fast path: ordinary local commit, no votes, no
         decision — 2PC costs only appear when a transaction actually
         spans shards. *)
      let _ts : int = Manager.commit_txn (mgr_of t si) b in
      Atomic.incr t.commits;
      Ok v
    | parts ->
      two_phase t ctx parts;
      Ok v)

let run_once t body =
  match attempt_once ~anchor:false t body with Ok v -> Ok v | Error (reason, _) -> Error reason

let run t body =
  match attempt_once ~anchor:true t body with
  | Ok v -> v
  | Error (_, priority) ->
    Runtime.Retry.until_commit ~priority (fun () -> attempt_once ~anchor:false ~priority t body)
