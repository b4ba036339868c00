(** The transaction manager: commit timestamps and the retry loop.

    Commit timestamps come from a per-manager logical clock
    ({!Model.Timestamp.t} values drawn from an atomic counter).  Drawing
    the timestamp strictly before distributing commit events yields the
    hybrid-atomicity timestamp constraint [precedes(H|X) ⊆ TS(H)]: if
    transaction [Q] observes [P]'s commit at some object, [P]'s timestamp
    was drawn before that observation, hence before [Q]'s own draw, and
    the counter is monotonic (paper Section 3.3; Lamport logical
    clocks).

    {!run} executes a transaction body with automatic abort-and-retry:
    an object wrapper that exhausts its conflict retries raises
    {!Txn_rt.Abort_requested}; the manager sends abort events to every
    touched object (releasing locks and discarding intentions) and
    restarts the body. *)

type t

type outcome_stats = {
  started : int;  (** attempts, including retries *)
  committed : int;
  aborted : int;  (** aborted attempts (each may be retried) *)
}

val create : ?wal:Wal.Log.t -> ?stripe:int * int -> unit -> t
(** With [wal], the manager runs the write-ahead commit rule: the commit
    record (transaction id + timestamp) is appended {e inside} the
    timestamp-draw critical section — so commit records appear in the
    log in exact commit-timestamp order — and made durable
    ({!Wal.Log.sync_upto} the record's LSN, a group-commit batch under
    concurrency) before any commit event is distributed to
    participants.  Abort records are appended on abort (without fsync;
    recovery discards uncommitted intentions regardless).

    [stripe = (i, n)] (default [(0, 1)]) restricts this manager's
    timestamp draws to the residue class [i mod n]: shard [i] of [n]
    managers in one process (or one system) then issues timestamps from
    disjoint sets with no shared state, which is what makes the
    cross-shard decided timestamp (max over prepares, see {!prepare})
    globally unique.  The default stripe is the single-manager seed
    behaviour (successive integers from 1). *)

val wal : t -> Wal.Log.t option

val current_time : t -> Model.Timestamp.t
(** Largest timestamp issued so far (0 if none). *)

val stable_time : t -> Model.Timestamp.t
(** The commit watermark: every transaction with a timestamp at or below
    this has fully distributed its commit events to the objects it
    touched.  Snapshot readers (see {!Snapshot}) serialize at a stable
    timestamp so they can never miss a smaller-timestamped commit that
    is still in flight.

    With nothing in flight, a striped manager is stable up to (one
    below) the next timestamp it could possibly issue or adopt — not
    just its last draw: stripe [(1, 4)] idle after issuing 5 reports 8,
    because 6 and 7 belong to residue classes this shard never draws and
    adopting a foreign decided timestamp first pins a {e prepared} one
    in flight.  A cross-shard wait-till-stable (and the Theorem 24
    horizon) therefore cannot hang on an idle shard.  The default
    [(0, 1)] stripe reduces to the classic "clock when idle". *)

exception Too_many_attempts of string

exception Durability_lost of string
(** The commit record reached the log but its sync failed: the record
    may or may not be on stable storage, so the runtime can report
    {e neither} commit nor abort for this transaction — an abort would
    let recovery replay a transaction the runtime disowned.  The
    transaction's in-flight timestamp is retired (so [stable_time]
    cannot wedge) but no commit or abort event is distributed; treat
    the condition as crash-equivalent — recovery from the log decides
    the transaction's outcome.  Transactions whose sync {e returned}
    before the failure are unaffected (they are durable), and
    subsequent transactions may proceed if the log recovers. *)

val run : ?max_attempts:int -> t -> (Txn_rt.t -> 'a) -> 'a
(** Run a transaction to commit.  The body may raise
    {!Txn_rt.Abort_requested} (usually via {!Atomic_obj.Make.invoke}) to
    abort; any other exception aborts the transaction and propagates.
    Failed attempts restart after {!Retry.restart_pause}: a seeded,
    jittered exponential backoff, parked on the object a wait-die death
    lost so that its release cuts the pause short.  After [max_attempts] (default
    1000) failed attempts raises {!Too_many_attempts}.  With a WAL
    attached, a post-append sync failure raises {!Durability_lost}
    without retrying (the attempt's outcome is indeterminate, so a
    retry could double-commit). *)

val run_once : t -> (Txn_rt.t -> 'a) -> ('a, string) result
(** Single attempt, no retry: [Error reason] when the body requested an
    abort. *)

val abort_in : ?reason:string -> unit -> 'a
(** Convenience for transaction bodies: raise {!Txn_rt.Abort_requested}. *)

(** {1 Externally driven transactions}

    A distributed coordinator ({!Dist.Coordinator}) runs transaction
    bodies itself and drives each shard's manager through the commit
    protocol directly: {!commit_txn}/{!abort_txn} for single-shard
    transactions, {!prepare} + {!decide_commit}/{!decide_abort} for
    cross-shard ones. *)

val commit_txn : t -> Txn_rt.t -> Model.Timestamp.t
(** Commit an externally executed handle through the full local path —
    timestamp draw, write-ahead commit record, durability point, commit
    distribution — returning the commit timestamp.  Raises
    {!Durability_lost} exactly like {!run}. *)

val abort_txn : t -> Txn_rt.t -> unit
(** Abort an externally executed handle: abort record (unforced), abort
    events to its participants, failure accounting. *)

val prepare : t -> Txn_rt.t -> gtxn:int -> Model.Timestamp.t
(** 2PC phase 1 at a participant shard: draw this shard's hybrid
    timestamp for global transaction [gtxn], force a [Prepare] record
    (the vote's durability point), and return the timestamp.  The
    prepared timestamp stays in flight — pinning {!stable_time}, and
    with it every horizon and checkpoint, below it — until
    {!decide_commit} or {!decide_abort}: a shard's horizon may not
    advance past a prepared-but-undecided transaction.  On failure the
    timestamp is retired and the exception propagates; the coordinator
    must then abort the global transaction (the un-acked vote is
    presumed aborted by recovery). *)

val decide_commit : t -> Txn_rt.t -> prepared:Model.Timestamp.t -> ts:Model.Timestamp.t -> unit
(** 2PC phase 2 at a participant shard, commit decision: adopt decided
    timestamp [ts] (= max over all participants' prepared timestamps;
    Lamport-merges into this shard's clock so every later local draw
    exceeds it), move the in-flight pin from [prepared] to [ts], append
    the commit record, distribute commit events, and force the record —
    return is the durable ack after which the coordinator may forget
    the decision.  A late failure (append/sync) raises only after the
    commit is applied in memory: the decision is already durable at the
    coordinator and recovery re-derives this shard's commit from it, so
    the caller must treat the transaction as committed but must {e not}
    forget the decision. *)

val decide_abort : t -> Txn_rt.t -> prepared:Model.Timestamp.t -> unit
(** 2PC phase 2 at a participant shard, abort decision (or presumed
    abort after a failed prepare elsewhere): release the prepared
    reservation and abort the local branch. *)

val stats : t -> outcome_stats

val register_introspection : ?name:string -> t -> unit
(** Register this manager's clock with the live-introspection registry:
    a provider named [name] (default ["manager"]) in the ["horizon"]
    snapshot channel (clock, stable watermark, in-flight commit count,
    outcome tallies) and callback gauges [txn_clock] and [txn_inflight]
    labelled [mgr=name].  Replace-on-name, like every registry entry. *)
