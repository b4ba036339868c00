(** Span phase vocabulary for the flight recorder.

    A transaction's span is the set of flight records carrying its id,
    bracketed by [begin]/[commit|abort] (local attempts, emitted by
    {!Runtime.Manager}) or [cross_begin]/[cross_commit|cross_abort]
    (coordinator attempts, emitted by {!Dist.Coordinator}; every branch
    shares the global id, so the per-shard 2PC legs stitch into one
    multi-shard span).  Between the brackets, phase-transition marks
    locate where the latency went: lock waits (retry loop), WAL append,
    the group-commit durability barrier, restart backoff, and the 2PC
    prepare/decide legs.  {!Profile} turns these into per-phase
    latency histograms. *)

val c_begin : int
val c_commit : int
val c_abort : int
val c_lock_wait : int
val c_lock_resume : int
val c_op : int
val c_append : int
val c_sync_wait : int
val c_sync_done : int
val c_backoff : int
val c_prepare : int
val c_prepared : int
val c_decide : int
val c_decide_commit : int
val c_decide_abort : int
val c_cross_begin : int
val c_cross_commit : int
val c_cross_abort : int
val c_fsync : int
val c_park : int
val c_unpark : int

val all_codes : int list
val name : int -> string

val enabled : unit -> bool
(** [Flight.recording] — gate for instrumentation sites that would
    otherwise pay for a clock read or label encode. *)

val detailed : unit -> bool
(** [Flight.detailed] — gate for the per-op tier. *)

val txn_begin : txn:int -> shard:int -> unit
val txn_commit : txn:int -> ts:int -> unit
val txn_abort : txn:int -> unit
val lock_wait : txn:int -> obj:int -> unit
val lock_resume : txn:int -> obj:int -> unit
val op : txn:int -> obj:int -> inv:int -> dur_ns:int -> unit
val append : txn:int -> lsn:int -> unit
val sync_wait : txn:int -> lsn:int -> unit
val sync_done : txn:int -> unit
val backoff : txn:int -> sleep_ns:int -> unit
val prepare : txn:int -> shard:int -> unit
val prepared : txn:int -> shard:int -> ts:int -> unit
val decide : txn:int -> ts:int -> unit
val decide_commit : txn:int -> shard:int -> ts:int -> unit
val decide_abort : txn:int -> shard:int -> unit
val cross_begin : txn:int -> unit
val cross_commit : txn:int -> ts:int -> unit
val cross_abort : txn:int -> unit
val fsync : dur_ns:int -> unit

val park : txn:int -> obj:int -> timeout_ns:int -> unit
(** The retry scheduler parked [txn] waiting on [obj] with the given
    timeout backstop (see {!Runtime.Sched}). *)

val unpark : txn:int -> woken:bool -> unit
(** The parked transaction resumed: [woken] when a release signalled it,
    false when the timeout backstop expired.  The park→unpark interval
    sits inside the span's lock_wait window. *)
