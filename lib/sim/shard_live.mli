(** Long-running sharded workload for the introspection server.

    [config.domains] workers run the {!Shard_exp} transaction mix
    (home-shard credit/debit runs, [cross_pct]% cross-shard transfers
    through the 2PC coordinator) against [config.shards] shards, each
    with its own manager, timestamp stripe, trace ring and — with
    [wal_dir] — its own WAL plus the coordinator's decision log.

    Unlike the single-manager serve loop ({!Live}), no epoch rotation is
    needed: the registered sampler audits are the {e cross-shard} checks
    ({!Dist.Audit}), which are sound on partial (wrapped) windows.  The
    sampler continuously re-verifies completion agreement, decided
    timestamps and observed order across the live per-shard rings;
    {!Dist.Router.register_introspection} puts every shard's lock
    tables, horizons and [shard]-labelled gauges behind the usual
    endpoints. *)

type config = {
  shards : int;
  domains : int;  (** worker domains, each pinned to a home shard *)
  think_us : float;
  seed : int;
  cross_pct : float;  (** percentage of transactions spanning two shards *)
  ring_capacity : int;  (** per-shard trace-ring slots *)
}

val default_config : config
(** 2 shards, 4 domains, 100 us think, seed 0, 10% cross-shard, 2^16
    slots per ring. *)

type t

val start : ?wal_dir:string -> ?fsync:bool -> ?group_commit:bool -> config -> t
(** Create the shards (durable iff [wal_dir]), register per-shard
    introspection and the [dist/atomicity] + [waitfor/dist] sampler
    audits, and spawn the workers. *)

val inject_violation : t -> bool
(** The negative control: commit-side forgery of a decided-abort
    transaction.  Runs a cross-shard transfer that aborts itself after
    invoking on two shards, then forges a [Commit] entry for its global
    id into shard 0's ring.  The next [dist/atomicity] audit must flag
    it (completion disagreement; with a decision log also
    decided-abort-yet-committed).  [false] only when the workload has
    fewer than two shards. *)

val windows : t -> Obs.Trace.entry list array
(** The current per-shard windows, indexed by shard. *)

val stitched : t -> Obs.Trace.entry list
(** The merged timeline ({!Dist.Audit.stitch}) — the window behind
    [/waitfor]. *)

val setup : t -> Shard_exp.setup
val shards : t -> int

type stats = {
  s_committed : int;  (** across every shard manager *)
  s_aborted : int;
  s_cross_commits : int;
  s_cross_aborts : int;
  s_injected : int;
}

val stats : t -> stats

val stop : t -> unit
(** Signal the workers and join their domains.  Idempotent. *)

val close : t -> unit
(** {!stop}, then close every shard WAL and the decision log. *)
