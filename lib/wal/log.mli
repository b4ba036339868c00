(** The write-ahead intentions log.

    Record vocabulary (one-to-one with the paper's protocol state):
    - [Object]: declares an object's name and ADT type, so recovery can
      dispatch to the right {!Codec.DURABLE} implementation;
    - [Intention]: one operation appended to a transaction's intentions
      list at some object (Section 5.1) — a redo record;
    - [Commit]: a transaction's commit timestamp.  The manager appends it
      {e before} distributing commit events and inside the timestamp-draw
      critical section, so the log's commit-record order is exactly the
      commit-timestamp order — the hybrid serialization order;
    - [Abort]: the transaction's intentions must be discarded;
    - [Checkpoint]: an object's horizon advanced to [upto]
      (Definition 20) and [payload] is its folded version (the common
      prefix of Definition 22, serialized by the codec).  Theorem 24 —
      the common prefix grows monotonically — is what makes the
      checkpoint a sound truncation point: no later event can un-fold it.

    Three records implement presumed-abort two-phase commit across
    shards (see [Dist]):
    - [Prepare]: a participant shard's forced vote for global
      transaction [gtxn]: local branch [txn] holds its locks, [ts] is
      the hybrid timestamp drawn at this shard.  A [Prepare] not
      followed by this transaction's [Commit]/[Abort] is {e in doubt}
      and resolves against the coordinator's decision log on recovery;
    - [Decide]: the coordinator's forced commit decision — [ts] is
      [max] over the participants' prepared timestamps.  Written only
      to the coordinator's decision log; its durability point {e is}
      the global commit point.  Presumed abort: abort decisions are
      never logged, so an in-doubt participant finding no [Decide]
      aborts;
    - [Forget]: the coordinator may drop the decision once every
      participant has acknowledged a durable commit record — nobody
      will ever ask about [gtxn] again.

    [Object], [Intention] and [Checkpoint] carry an optional [cell] key:
    when an ADT is partitioned into independently locked cells
    ({!Spec.Partition}, [Part.Cells]), each cell is a sub-object with its
    own intentions list and horizon, and its records identify which cell
    of the logical object they belong to.  [None] means the record is at
    whole-object granularity (the seed behaviour; also the fallback cell
    for non-partitionable operations).  Because each cell has a distinct
    [obj] name, recovery needs no cell-specific logic — per-cell redo in
    commit-timestamp order is exactly per-object redo — but the key is
    persisted so a recovered image can be re-aggregated and audited
    cell-by-cell.

    Framing is [length:u32][crc32:u32][payload].  {!parse} stops at the
    first bad frame and reports it as a torn tail, which is the expected
    shape after [kill -9] mid-append.

    An open log's file is longer than its records: the writer extends it
    with [ftruncate] in 256 KiB chunks (sparse, no zeros written) ahead
    of its write offset, and writes each record in place.  A forced
    record then changes no file size, so its fsync flushes the record
    and not a new size too.  The unwritten space reads as zeros, and
    {!parse} takes a zero run of at least one header that reaches the
    end of the file as a clean end of log; garbage inside it is still a
    torn tail.  {!close} truncates the file to its records.

    The writer keeps the live record set in memory (object declarations,
    latest checkpoints, intentions not yet covered by every touched
    object's checkpoint), with its size kept as a running count, and
    rewrites the file down to that set once the dead records reach
    [max compact_threshold live] — keeping the log O(live transactions)
    instead of O(history).  The rewrite runs inline, in the append (or
    the sync round) that trips it, under the log mutex: it writes a temp
    file, reserves space past it, fsyncs it, renames it over the log,
    fsyncs the directory and keeps writing to it.  The floor spreads that fixed cost over at least
    [compact_threshold] appends; the [live] term spreads the O(live)
    copy over as many appends as it copies, so total rewrite work stays
    linear in appends even while the live set grows.

    {2 Durability: LSNs and group commit}

    Every append is assigned a log sequence number (LSN, counting
    appends ever, surviving rewrites).  Two watermarks define the
    durability state: {!appended_lsn} (everything written to the OS) and
    {!durable_lsn} (everything forced to stable storage).  The
    {e durability point} of a record is the return of {!sync_upto} for
    its LSN: the record — and every record appended before it — is then
    on disk.

    {!sync_upto} batches.  The first committer to need a sync becomes
    the {e leader}: it snapshots [appended_lsn] and runs a single fsync
    covering every record appended so far, while later committers wait
    on a condition variable until [durable_lsn] passes their LSN — so N
    concurrent commits share one fsync, and the fsync runs {e outside}
    the log mutex, letting the next batch's appends (and hence the
    manager's commit-timestamp draws) proceed meanwhile.  Batching never
    reorders the file: appends stay strictly ordered by the log mutex,
    so durable commit-record order remains commit-timestamp order.
    With [group_commit = false] the fsync runs while holding the log
    mutex (every committer pays a serialized fsync) — the
    pre-group-commit baseline.

    A wait covers one log.  A cross-shard commit over N participant
    logs appends every vote first, then calls {!sync_upto} on each
    vote's log in turn, on the committing thread, and then forces the
    decision: N + 1 forced waits (see [Dist.Coordinator]). *)

type record =
  | Object of { obj : string; adt : string; cell : int option }
  | Intention of { obj : string; txn : int; payload : string; cell : int option }
  | Commit of { txn : int; ts : int }
  | Abort of { txn : int }
  | Checkpoint of { obj : string; upto : int; payload : string; cell : int option }
  | Prepare of { txn : int; gtxn : int; ts : int }
  | Decide of { gtxn : int; ts : int }
  | Forget of { gtxn : int }

val equal_record : record -> record -> bool

(** {1 Framing} *)

val frame : Buffer.t -> record -> unit
val framed_size : record -> int

type tail = Clean | Torn of int  (** byte offset of the first bad frame *)

val parse : string -> record list * tail
(** The records before the first bad frame.  A run of at least eight
    zero bytes that reaches the end of the string is space a writer
    reserved and had not written yet: the tail is [Clean]. *)

val frames : string -> (record * int) list * tail
(** {!parse}, with the byte offset just past each record's frame.  It is
    the one framing walk: {!Crash} cuts its images along these offsets,
    so a cut never lands in the reserved space past the last record. *)

val read_file : string -> string
val read : string -> record list * tail

(** {1 Writer} *)

type t

val create : ?fsync:bool -> ?group_commit:bool -> ?compact_threshold:int -> string -> t
(** Open a fresh log at the given path (truncating any previous file),
    with its first chunk of space reserved.
    [fsync:false] turns the durability barrier into bookkeeping only —
    for experiments where durability across power loss is not under
    test (the sync hook still runs, so fault injection works without
    paying real fsyncs).  [group_commit] (default [true]) selects the
    batched leader/follower sync; [false] restores the serialized
    one-fsync-per-{!sync_upto} baseline.  A rewrite triggers once the
    dead records reach the larger of [compact_threshold] (default 8192)
    and the live set; [max_int] never rewrites. *)

val append : t -> record -> unit
(** Thread-safe.  Writes the record in place in the reserved space
    (reserving the next chunk first when it would not fit); the bytes
    sit in the OS page cache until a sync covers them. *)

val append_lsn : t -> record -> int
(** Like {!append} but returns the record's LSN — the value to hand to
    {!sync_upto} to reach this record's durability point. *)

val sync_upto : t -> int -> unit
(** Block until every record with LSN at or below the argument is
    durable (see the group-commit protocol above).  Raises whatever the
    failing fsync (or an installed {!set_sync_hook} hook) raised; on
    failure [durable_lsn] has {e not} advanced, and the records' fate on
    stable storage is unknown — callers must treat this as
    crash-equivalent for anything already appended (see
    {!Runtime.Manager}'s [Durability_lost]). *)

val set_sync_hook : t -> (unit -> unit) -> unit
(** Install a hook that runs at every durability point, just before the
    fsync (and even when [fsync:false]).  A raising hook makes the sync
    fail exactly like a failing fsync — the regression tests inject
    durability faults with this. *)

val clear_sync_hook : t -> unit

val close : t -> unit
(** Truncates the file to its records, forces anything outstanding and
    closes it; every appended record then counts as durable
    ({!durable_lsn} = {!appended_lsn}). *)

val path : t -> string

val file_records : t -> int
(** Records currently in the file (resets at each rewrite). *)

val live : t -> int
(** Size of the live set a rewrite would retain — the O(live
    transactions) bound the acceptance criterion measures.  Kept
    incrementally: O(1). *)

val rewrites : t -> int
(** Rewrites this log has made, counted whether or not observability
    is on.  While [Obs.Control] is on, each also lands in the
    [wal.rewrite_latency] histogram; its two fsyncs count in neither
    {!fsyncs} nor [wal.fsync_latency]. *)

val appended_lsn : t -> int
(** LSN of the latest append (0 if none). *)

val durable_lsn : t -> int
(** Highest LSN known durable.  [appended_lsn - durable_lsn] is the
    durable lag — the records a crash right now would tear off. *)

val fsyncs : t -> int
(** Completed durability rounds — with [fsync] enabled, exactly the
    number of [Unix.fsync] calls the sync path has made.  The group
    commit acceptance criterion is [fsyncs t < commits] under concurrent
    committers. *)

val checkpoint_upto : t -> string -> int option
(** The latest checkpointed horizon for an object, if any. *)

val register_introspection : t -> unit
(** Register this log with the live-introspection registry: a ["wal"]
    snapshot channel provider (file/live record and byte counts, LSN
    watermarks, checkpoint and active-transaction tallies, dirty flag)
    and callback gauges [wal_file_bytes], [wal_live_records],
    [wal_checkpoint_lag] (committed transactions whose records the
    compactor must retain because some touched object has not
    checkpointed past them) and [wal_durable_lag]
    ([appended_lsn - durable_lsn], the durability analogue of
    Theorem 24's compaction debt), all labelled by the log's file name.
    The snapshot's [rewrites] field is {!rewrites}.  Fsync latency is
    always recorded in the [wal.fsync_latency] histogram, per-round
    batch sizes in [wal.fsync_batch] and rewrite durations in
    [wal.rewrite_latency]; this call only adds the level-style views. *)
