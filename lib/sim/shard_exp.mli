(** EXP-SHARD: sharded managers against the single-manager baseline.

    One account per shard, domains pinned to home shards, a configurable
    fraction of transactions transferring across shards through the 2PC
    coordinator.  At 0% cross-shard the shards share nothing — the pure
    scaling axis; the cross-shard mix prices the coordinator. *)

module Aobj : module type of Runtime.Atomic_obj.Make (Adt.Account)

type setup = {
  router : Dist.Router.t;
  coord : Dist.Coordinator.t;
  dlog : Dist.Decision_log.t option;
  accounts : Aobj.t array;
}

val make_setup :
  ?wal_dir:string ->
  ?prefix:string ->
  ?fsync:bool ->
  ?group_commit:bool ->
  ?compact_threshold:int ->
  ?ring_capacity:int ->
  shards:int ->
  unit ->
  setup
(** Shards, coordinator, decision log (iff [wal_dir]), and one seeded
    account per shard, traced to the shard's ring. *)

val close_setup : setup -> unit
val rings : setup -> Obs.Trace.t array
val outcome_fn : setup -> int -> Dist.Decision_log.outcome option

val txn_body :
  setup -> think_us:float -> seed:int -> cross_pct:float -> domain:int -> seq:int -> unit
(** One workload transaction on domain [domain]'s home shard ([domain]
    mod the shard count): a local credit/debit run, or with probability
    [cross_pct]% a cross-shard transfer. *)

val drive : setup -> Driver.scale -> seed:int -> cross_pct:float -> int * float
(** {!Driver.loop} over {!txn_body} on [max scale.domains shards]
    domains, so every shard has a worker.  Returns the transactions
    run (every one commits) and the wall-clock seconds. *)

type outcome = {
  row : Experiments.row;
  o_shards : int;
  o_cross_pct : float;
  o_fsyncs : int;  (** total durability rounds: every shard WAL + decision log *)
  o_cross_commits : int;
  o_cross_aborts : int;
  o_ack_failures : int;
}

val run_one :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?wal_dir:string ->
  ?prefix:string ->
  ?fsync:bool ->
  ?group_commit:bool ->
  ?ring_capacity:int ->
  shards:int ->
  cross_pct:float ->
  unit ->
  outcome
(** One measured cell.  The row's [atomic] verdict combines per-object
    replay checks with the cross-shard audit ({!Dist.Audit.check}
    against the coordinator's outcomes); [window] is the stitched
    timeline.  Runs [max scale.domains shards] domains so every shard
    has a worker. *)

val shard_counts : int -> int list
(** [1; 2; 4; ...; upto]. *)

val exp_shard :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?shards:int ->
  ?cross_pct:float ->
  ?wal_dir:string ->
  ?fsync:bool ->
  ?group_commit:bool ->
  unit ->
  Experiments.table
(** The table: shard counts {!shard_counts} at 0% cross-shard, plus each
    multi-shard count at [cross_pct].  With [wal_dir], every cell runs
    durably under its own file prefix. *)
