(** The coordinator's presumed-abort decision log.

    Only commit decisions are forced ({!decide} returns at the [Decide]
    record's durability point — the {e global commit point} of a
    cross-shard transaction).  Abort is the presumption: an in-doubt
    participant finding no decision aborts, so aborts cost the
    coordinator no I/O at all — the presumed-abort optimisation.
    A decision is forgotten once every participant's commit record is
    durable ({!acked}), keeping the log O(unacknowledged decisions).

    The writer also keeps a bounded in-memory outcome table, including
    session-scoped {e abort} verdicts ({!note_abort}) that are never
    written to disk: {!outcome} feeds the cross-shard audit
    ({!Audit.analyze}), which needs to recognise a shard committing a
    transaction the coordinator decided to abort. *)

type outcome = [ `Commit of int | `Abort ]

type t

val create : ?fsync:bool -> ?group_commit:bool -> ?outcome_cap:int -> string -> t
(** Open a fresh decision log (truncating).  [outcome_cap] bounds the
    in-memory outcome table (generational eviction keeps between [cap]
    and [2*cap] recent outcomes). *)

val decide : t -> gtxn:int -> ts:int -> unit
(** Force [Decide {gtxn; ts}].  Returning is the global commit point;
    raises like {!Wal.Log.sync_upto} on a durability fault, in which
    case the decision is {e not} taken (the record's fate on disk is
    unknown, and recovery may resolve either way — the caller must
    treat it as crash-equivalent). *)

val forget : t -> gtxn:int -> unit
(** Unforced [Forget]: safe only after every participant durably
    committed. *)

val acked : t -> gtxn:int -> (Wal.Log.t * int) list -> unit
(** Every participant of [gtxn] appended its commit record, at the
    given [(log, lsn)] positions (unforced).  The decision becomes
    pending and is forgotten once each position is durable
    ({!Wal.Log.durable_lsn} has passed it).  Every call, this one
    included, writes [Forget] for each pending decision that has become
    forgettable; there is no timer, so a decision waiting on an idle log
    waits for that log's next sync or for {!close}. *)

val pending : t -> int
(** Decisions acked but not yet forgotten. *)

val note_abort : t -> gtxn:int -> unit
(** Record an abort verdict in memory only, for the audit. *)

val outcome : t -> int -> outcome option
(** Audit lookup: [None] means the transaction is unknown to this
    coordinator (e.g. a purely local transaction) — {e not} presumed
    abort. *)

val decided : t -> int -> int option
(** Recovery lookup: the decided commit timestamp, [None] for the
    presumption. *)

val log : t -> Wal.Log.t
val path : t -> string
val close : t -> unit
(** Force the positions every pending decision waits on (those of a
    closed log are durable already), forget those decisions, and close
    the log.  A decision whose log fails to sync stays on disk. *)

val read : string -> (int * int) list
(** Offline: surviving (gtxn, decided ts) pairs in a decision-log file,
    [Forget]-covered entries excluded — what a restarted system resolves
    in-doubt participants against ({!Wal.Recover.resolve}). *)
