(* The coordinator's presumed-abort decision log.

   Only commit decisions are written: the durability point of the
   [Decide] record is the global commit point of a cross-shard
   transaction.  An in-doubt participant that finds no decision presumes
   abort — which is why abort needs no forced record, no record at all.

   A commit decision is kept until every participant's Commit record is
   durable.  Those records are not forced (they ride their logs' next
   sync), so the writer holds the unacknowledged decisions with the log
   positions they wait on, and writes [Forget] for each one whose
   positions have all become durable: checked on every [acked] and at
   [close].  No timer: an idle participant log keeps its decisions
   until its next sync.

   Alongside the durable log the writer keeps a bounded in-memory
   outcome table (commit decisions and session-scoped abort verdicts):
   the cross-shard audit ([Dist.Audit]) checks observed trace outcomes
   against it, which is what catches a shard committing a decided-abort
   transaction.  The abort side is deliberately memory-only — recovery
   must rely on the presumption, not on it. *)

type outcome = [ `Commit of int | `Abort ]

type t = {
  log : Wal.Log.t;
  mutex : Mutex.t;
  cap : int;
  (* two-generation eviction: lookups check both tables, so the table
     remembers at least [cap] and at most [2*cap] recent outcomes —
     plenty for any audit window, bounded for long-lived servers *)
  mutable cur : (int, outcome) Hashtbl.t;
  mutable prev : (int, outcome) Hashtbl.t;
  mutable pending : (int * (Wal.Log.t * int) list) list;
      (* unacknowledged decisions: gtxn -> participant Commit records *)
}

let create ?(fsync = true) ?(group_commit = true) ?(outcome_cap = 1 lsl 16) path =
  {
    log = Wal.Log.create ~fsync ~group_commit path;
    mutex = Mutex.create ();
    cap = outcome_cap;
    cur = Hashtbl.create 1024;
    prev = Hashtbl.create 1;
    pending = [];
  }

let path t = Wal.Log.path t.log
let log t = t.log

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let note t gtxn o =
  with_lock t (fun () ->
      if Hashtbl.length t.cur >= t.cap then begin
        t.prev <- t.cur;
        t.cur <- Hashtbl.create 1024
      end;
      Hashtbl.replace t.cur gtxn o)

(* Force the decision: returning means every participant may now learn
   the outcome.  The in-memory note happens only after the sync — a
   failed sync leaves the decision un-taken for the audit too. *)
let decide t ~gtxn ~ts =
  let lsn = Wal.Log.append_lsn t.log (Wal.Log.Decide { gtxn; ts }) in
  Wal.Log.sync_upto t.log lsn;
  note t gtxn (`Commit ts)

let forget t ~gtxn = Wal.Log.append t.log (Wal.Log.Forget { gtxn })
let note_abort t ~gtxn = note t gtxn `Abort

let durable (w, lsn) = Wal.Log.durable_lsn w >= lsn

(* Forget every pending decision whose Commit records are all durable.
   The partition runs under the mutex, so concurrent callers never
   forget one decision twice. *)
let reap t =
  let ready =
    with_lock t (fun () ->
        let ready, waiting = List.partition (fun (_, recs) -> List.for_all durable recs) t.pending in
        t.pending <- waiting;
        ready)
  in
  List.iter (fun (gtxn, _) -> forget t ~gtxn) ready

let acked t ~gtxn recs =
  with_lock t (fun () -> t.pending <- (gtxn, recs) :: t.pending);
  reap t

let pending t = with_lock t (fun () -> List.length t.pending)

let outcome t gtxn =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.cur gtxn with
      | Some o -> Some o
      | None -> Hashtbl.find_opt t.prev gtxn)

let decided t gtxn =
  match outcome t gtxn with Some (`Commit ts) -> Some ts | Some `Abort | None -> None

(* A clean shutdown forces what its pending decisions wait on, so it
   forgets all of them.  A participant log that is already closed is
   durable to its end; one whose sync fails keeps its decision. *)
let close t =
  let force (w, lsn) =
    durable (w, lsn)
    ||
    match Wal.Log.sync_upto w lsn with () -> true | exception _ -> false
  in
  let pending =
    with_lock t (fun () ->
        let p = t.pending in
        t.pending <- [];
        List.rev p)
  in
  List.iter (fun (gtxn, recs) -> if List.for_all force recs then forget t ~gtxn) pending;
  Wal.Log.close t.log

(* Recovery side: the surviving commit decisions in a decision-log file.
   [Wal.Recover.decisions] on the parsed records — last write wins per
   gtxn (decisions are immutable, so duplicates only arise from
   rewrites), minus anything a later [Forget] covered. *)
let read path =
  let records, _tail = Wal.Log.read path in
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Wal.Log.Decide { gtxn; ts } -> Hashtbl.replace tbl gtxn ts
      | Wal.Log.Forget { gtxn } -> Hashtbl.remove tbl gtxn
      | _ -> ())
    records;
  Hashtbl.fold (fun gtxn ts acc -> (gtxn, ts) :: acc) tbl []
  |> List.sort compare
