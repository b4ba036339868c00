(** Retry scheduler: park on conflict, wake on release.

    Replaces the runtime's retry/restart sleeps ([Unix.sleepf] polling)
    with a park/notify rendezvous: a refused transaction registers a
    waiter on the contended object, re-attempts once (closing the
    register/check/park race), and parks on its domain's self-pipe with
    its backoff quantum as the timeout backstop; the releasing
    transaction's commit/abort notifies the object's waiters, delivering
    every one of them itself.  An empty bucket costs a notifier a single
    atomic read; everything is lock-free (see {!Lockstat}).

    Timeouts make every park bounded: a lost or late signal degrades to
    exactly the pre-rework backoff sleep, never a stranded waiter. *)

type ticket

val register : obj:int -> txn:int -> ticket
(** Enqueue a waiter for [txn] on [obj]'s bucket.  The caller {e must}
    re-attempt its operation after registering and before {!park} — a
    release that completed before the registration wakes nobody. *)

val cancel : ticket -> unit
(** Discard a registration (the re-attempt succeeded, or the caller is
    dying).  Cancelled waiters are dropped lazily by the next notify
    sweep of their bucket. *)

val park : ticket -> timeout:float -> [ `Woken | `Timeout ]
(** Block until a release signals the ticket, or [timeout] seconds.
    [`Woken] means some commit/abort on the object happened since
    registration — re-attempt immediately. *)

val notify : obj:int -> unit
(** Wake every waiter registered on [obj] (commit/abort release path).
    Empty bucket: one atomic read, no allocation. *)

val sleep : float -> unit
(** Timed park without a registration (restart delays with no conflict
    hint).  May return early on a stale signal; callers re-attempt in a
    loop anyway. *)

type stats = { parks : int; wakes : int; steals : int; timeouts : int; notifies : int }
(** [steals] always reads 0: wake-ups are delivered by the notifier
    itself, so nothing is ever stolen.  The field stays because the
    benchmark harness reports it as [sched.steals_per_wake]. *)

val stats : unit -> stats
(** Process-wide scheduler counters (monotone). *)

val park_fd : unit -> Unix.file_descr
(** The read end of the calling domain's self-pipe.  Two concurrently
    live domains never share a self-pipe.  Exposed for tests. *)
