(** The cross-shard transaction coordinator: presumed-abort two-phase
    commit over hybrid timestamps.

    A global transaction body receives a {!ctx} and opens a {!branch}
    per shard it touches; all branches share one global transaction id
    and priority, so per-shard traces stitch by id and wait-die treats
    the branches as one transaction.  At commit:

    - {e single-shard} transactions take the ordinary local commit path
      (no votes, no decision record — 2PC costs nothing until a
      transaction actually spans shards);
    - {e cross-shard} transactions run 2PC on N + 1 forced waits for N
      participants: every participant {!Runtime.Manager.prepare}s
      (drawing its shard's hybrid timestamp and appending its vote)
      before any vote is waited on, then each vote's log is forced in
      turn on the committing thread ({!Wal.Log.sync_upto}, first-touch
      order, stopping at the first failure); the coordinator decides
      [commit_ts = max(prepared timestamps)] and forces it to the
      decision log (the global commit point); then every participant
      {!Runtime.Manager.decide_commit}s at the decided timestamp,
      appending its commit record unforced.  The decision is forgotten
      once every participant's commit record is durable
      ({!Decision_log.acked}).

    Why max-of-prepares is a valid hybrid timestamp: each prepared
    timestamp exceeds everything its branch observed at its shard, the
    max exceeds all of them, and [decide_commit] Lamport-merges the
    decided value into every participant's clock — so any transaction
    that later observes this commit draws a larger timestamp at
    whichever shard it looks.  [precedes ⊆ TS] holds across shards with
    no shared clock.  Uniqueness comes from timestamp striping: the max
    {e is} one shard's prepared draw, issued exactly once system-wide.

    Presumed abort: aborts write nothing to the decision log.  An
    in-doubt participant (Prepare with no local outcome record) resolves
    against the decision log on restart — commit at the decided
    timestamp if present, abort otherwise ({!Wal.Recover.resolve}). *)

type t

type ctx
(** One global transaction attempt. *)

(** Protocol milestones, in order: after the body ran; once every
    vote is durable, one [Prepared] per participant in first-touch
    order; after the decision became durable; after each participant
    applied the decision and {e appended} its commit record (not yet
    durable — it rides that log's next sync).  A {!step} hook that
    raises models a coordinator crash at exactly that point — the
    coordinator performs {e no} cleanup, leaving participants prepared /
    undecided / partially acked for recovery to resolve (the kill-point
    matrix drives this). *)
type step =
  | Executed
  | Prepared of int  (** shard index *)
  | Decided of Model.Timestamp.t
  | Acked of int  (** shard index: commit record appended *)

val create : ?dlog:Decision_log.t -> Router.t -> t
(** Without [dlog] the coordinator still runs 2PC in memory (prepares,
    max decision, decided commits) but a crash may lose any cross-shard
    commit, even on shards with WALs: commit records are not forced,
    and recovery presumes a vote it finds undecided aborted — for
    non-durable experiments only. *)

val router : t -> Router.t

val id : ctx -> int
(** The global transaction id (shared by every branch). *)

val branch : ctx -> Shard.t -> Runtime.Txn_rt.t
(** The transaction's branch at a shard (created on first use).  Pass it
    to objects created on that shard, exactly like a local handle. *)

val run : t -> (ctx -> 'a) -> 'a
(** Run a global transaction until it commits, with the same
    abort-and-restart contract as {!Runtime.Manager.run}:
    {!Runtime.Txn_rt.Abort_requested} aborts every branch (presumed
    abort — no decision-log write) and restarts after
    {!Runtime.Retry.restart_pause}, preserving priority.  The first
    attempt's abort anchors the transaction, and the first branch of a
    restart to commit releases the anchor, so a cross-shard winner can
    cost a loser one more death while its later branches commit
    (DESIGN §10).  There is no attempt budget.  Raises
    {!Runtime.Manager.Durability_lost} when the decision record's fate
    is unknown (crash-equivalent: branches stay prepared and pinned;
    recovery resolves them). *)

val run_once : t -> (ctx -> 'a) -> ('a, string) result
(** Single attempt, no retry. *)

val outcome : t -> int -> Decision_log.outcome option
(** The coordinator's verdict on a global transaction id, for the
    cross-shard audit.  [None] = unknown to this coordinator (purely
    local transaction), not presumed abort. *)

val set_step_hook : t -> (step -> unit) -> unit
val clear_step_hook : t -> unit

type stats = {
  c_attempts : int;
  c_commits : int;  (** committed global transactions, any width *)
  c_cross_commits : int;  (** the subset that ran 2PC *)
  c_aborts : int;
  c_ack_failures : int;
      (** decided commits where some participant's [decide_commit] raised
          (its commit record failed to append, or a commit event failed
          to apply): their decisions are retained, never forgotten.  A
          commit record whose log later fails to sync is not counted
          here — that failure surfaces, as
          {!Runtime.Manager.Durability_lost}, to the committer leading
          that sync, and the decision stays pending until a sync covers
          the record. *)
  c_cross_sync_waits : int;
      (** forced-write waits on the critical paths of committed
          cross-shard transactions: N + 1 each for N participants with
          WALs and a decision log (each vote, then the decision) *)
}

val stats : t -> stats
