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
  mutable on_step : step -> unit;
}

type ctx = {
  coord : t;
  gid : int;
  prio : int;
  mutable branches : (int * Txn_rt.t) list; (* shard index -> branch; newest first *)
}

type stats = {
  c_attempts : int;
  c_commits : int;
  c_cross_commits : int;
  c_aborts : int;
  c_ack_failures : int;
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
    let b = Txn_rt.fresh ~id:ctx.gid ~priority:ctx.prio () in
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

(* Phase 1: prepare every participant in first-touch order.  A branch
   whose prepare fails never voted (or its vote will be presumed
   aborted), so the global transaction aborts: already-prepared branches
   get a decide-abort (releasing their stability pins), the rest plain
   aborts.  The step hook is called {e outside} the exception match —
   a raising hook models a coordinator crash and must leave every
   participant exactly as the protocol did (prepared, pinned, undecided). *)
let phase1 t ctx parts prepared =
  let rec go = function
    | [] -> None
    | (si, b) :: rest -> (
      match Manager.prepare (mgr_of t si) b ~gtxn:ctx.gid with
      | pts ->
        prepared := (si, b, pts) :: !prepared;
        t.on_step (Prepared si);
        go rest
      | exception e ->
        Manager.abort_txn (mgr_of t si) b;
        List.iter (fun (sj, bj) -> Manager.abort_txn (mgr_of t sj) bj) rest;
        List.iter
          (fun (sj, bj, pj) -> Manager.decide_abort (mgr_of t sj) bj ~prepared:pj)
          !prepared;
        Some e)
  in
  go parts

let two_phase t ctx parts =
  (* From here the span is cross-shard: every branch carries the global
     id, so the per-shard prepare/decide marks emitted by the managers
     stitch into this one flight span. *)
  if Obs.Span.enabled () then Obs.Span.cross_begin ~txn:ctx.gid;
  let prepared = ref [] in
  match phase1 t ctx parts prepared with
  | Some e ->
    if Obs.Span.enabled () then Obs.Span.cross_abort ~txn:ctx.gid;
    record_abort t ctx.gid;
    raise e
  | None -> (
    let plist = List.rev !prepared in
    (* The decided timestamp: max over the participants' prepares.  It
       is one of the prepared timestamps, so it was drawn exactly once,
       from exactly one shard's stripe — globally unique — and it is at
       least every participant's prepared timestamp, so no participant's
       stability pin or previously observed commit is overtaken. *)
    let ts = List.fold_left (fun acc (_, _, pts) -> max acc pts) 0 plist in
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
      (* The forced Decide record is the global commit point. *)
      if Obs.Span.enabled () then Obs.Span.decide ~txn:ctx.gid ~ts;
      t.on_step (Decided ts);
      let ack_failed = ref false in
      List.iter
        (fun (si, b, pts) ->
          (try Manager.decide_commit (mgr_of t si) b ~prepared:pts ~ts
           with _ ->
             (* Commit applied in memory; only this shard's commit
                record is not known durable.  The decision log already
                commits the transaction for recovery — but it must not
                be forgotten. *)
             ack_failed := true;
             Atomic.incr t.ack_failures);
          t.on_step (Acked si))
        plist;
      if not !ack_failed then Option.iter (fun d -> Decision_log.forget d ~gtxn:ctx.gid) t.dlog;
      Atomic.incr t.commits;
      Atomic.incr t.cross_commits;
      Obs.Metrics.incr m_cross_commits;
      if Obs.Span.enabled () then Obs.Span.cross_commit ~txn:ctx.gid ~ts)

let attempt_once ?priority t body =
  Atomic.incr t.attempts;
  let gid = Txn_rt.fresh_id () in
  let prio = Option.value ~default:gid priority in
  let ctx = { coord = t; gid; prio; branches = [] } in
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
    abort_all ();
    Error (reason, prio)
  | exception e ->
    abort_all ();
    raise e
  | v -> (
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
      Ok (v, prio)
    | [ (si, b) ] ->
      (* Single-shard fast path: ordinary local commit, no votes, no
         decision — 2PC costs only appear when a transaction actually
         spans shards. *)
      let _ts : int = Manager.commit_txn (mgr_of t si) b in
      Atomic.incr t.commits;
      Ok (v, prio)
    | parts ->
      two_phase t ctx parts;
      Ok (v, prio))

let run_once t body =
  match attempt_once t body with Ok (v, _) -> Ok v | Error (reason, _) -> Error reason

let run ?(max_attempts = 1000) t body =
  let rec go attempt priority last_reason =
    if attempt >= max_attempts then
      raise
        (Manager.Too_many_attempts
           (Printf.sprintf "global transaction failed %d times; last: %s" attempt
              last_reason))
    else
      match attempt_once ?priority t body with
      | Ok (v, _) -> v
      | Error (reason, prio) ->
        Runtime.Retry.restart_pause ~key:prio ~attempt;
        go (attempt + 1) (Some prio) reason
  in
  go 0 None "never attempted"
