(** Long-running mixed workload for the introspection server, built
    around {e epoch rotation} so the online auditor always has a sound
    window to replay.

    The problem with auditing a live trace ring: once the ring wraps,
    the surviving window is a truncated history — a [Deq] whose [Enq]
    predates the window looks illegal, so a replay check would report
    a spurious violation.  Batch experiments sidestep this by clearing
    the ring before each run; a server cannot.

    Epochs solve it.  The workload runs against an {e epoch}: a fresh
    FIFO queue, SemiQueue and Account, all emitting into a private
    per-epoch trace ring sized to hold an entire epoch.  {!rotate}
    swaps in a fresh epoch (workers pick it up on their next
    transaction; in-flight transactions drain into the old ring) and
    hands the epoch retired {e one rotation earlier} — quiescent for a
    full period by then — to the {!Obs.Sampler} as replay-audit
    closures.  Every audited window is therefore complete from object
    creation, and replay is sound.  If an epoch ring does overflow, the
    audit reports the lost window ({!Obs.Sampler.skip_window_lost})
    instead of a fake verdict.

    Object names are stable across epochs ([live/queue], [live/semiq],
    [live/account]), so registry snapshot providers, gauges and audit
    registrations replace their predecessors — a server that rotates
    every second for a week keeps a bounded instrument set.

    Enqueued values are unique within an epoch (a shared counter), so
    every successful [Deq] returns a distinct value — which is what
    makes {!inject_violation} a {e guaranteed} atomicity violation: it
    re-emits a committed dequeuing transaction's operations under a
    ghost transaction id with a far-future commit timestamp, producing
    two committed dequeues of the same unique value.  The workload is
    untouched; only the trace lies.  The auditor must catch the lie. *)

type config = {
  domains : int;  (** worker domains *)
  think_us : float;
  seed : int;
  epoch_capacity : int;  (** trace-ring slots per epoch *)
}

val default_config : config
(** 4 domains, 100 us think time, seed 0, 2^15-slot epoch rings. *)

type t

val start : ?wal:Wal.Log.t -> config -> t
(** Create the first epoch, register introspection (object providers
    and gauges, the manager clock, a [waitfor/live] cycle audit over
    the current ring) and spawn the worker domains.  [wal] is attached
    to the {e manager} only (commit records and fsync-latency
    instrumentation); epoch objects are not durable — epochs are
    discarded wholesale, which a shared durable object name would
    confuse. *)

val rotate : t -> unit
(** Swap in a fresh epoch and register replay audits for the epoch
    retired one rotation ago.  Call from one thread (the serve loop),
    roughly once per audit period. *)

val inject_violation : t -> bool
(** Forge a double-dequeue in the current epoch's ring (see above).
    [false] when no dequeuing transaction has committed in this epoch
    yet — retry after the workload has run for a moment.  The next
    audit of this epoch must flag it. *)

val current_ring : t -> Obs.Trace.t
(** The current epoch's trace ring — the window behind [/waitfor]. *)

val manager : t -> Runtime.Manager.t

val epochs : t -> int
(** Rotations completed, plus one for the initial epoch. *)

val stop : t -> unit
(** Signal the workers and join their domains.  Idempotent. *)
