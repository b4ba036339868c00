(** The 2PC kill-point matrix: crash the coordinator at every protocol
    milestone, recover every shard from disk, and require the victim's
    fate to equal the decision log's verdict everywhere.

    Milestones are driven through {!Dist.Coordinator.set_step_hook} with
    a raising hook — the coordinator performs no cleanup, so the
    participants are left exactly as a real crash leaves them: holding
    locks, prepared, undecided, or partially acked.  Recovery then uses
    only the on-disk logs: shard WALs ([Wal.Log.read] →
    {!Wal.Recover.resolve}) against the surviving decisions
    ({!Dist.Decision_log.read}).

    Commit records are not forced and every vote is appended before
    the first is forced, so three more sites crash with each
    participant log cut at its durable LSN ({!Wal.Crash.image}): a vote
    whose force fails, a kill after every commit record was appended,
    and a crash right after the victim committed.  The decision log
    keeps every byte it wrote, unforced [Forget] records included, so a
    decision forgotten before its commit records were durable shows as
    a lost commit.

    A cell fails if the victim commits without a surviving [Decide],
    fails to commit despite one, commits at a timestamp other than the
    decided one, differs between participants, or if any shard's
    checkpointed recovery disagrees with the reference replay of its
    resolved records. *)

exception Killed of string
(** Raised by the installed kill hook; never escapes {!run}. *)

type site =
  | No_kill  (** unkilled control *)
  | Before_prepare  (** after the body, before any vote *)
  | Vote_lost of int
      (** every vote appended; the votes before participant [k] are
          durable, [k]'s force fails and the later votes were never
          forced: unsynced bytes lost *)
  | After_prepare of int
      (** every vote durable, killed at the (k+1)-th [Prepared] step *)
  | After_decide  (** decision durable, no participant applied *)
  | After_ack of int  (** after the (k+1)-th participant commit record append *)
  | Acks_lost
      (** after the last commit record append: unsynced bytes lost *)
  | Commits_lost
      (** the victim committed, then the crash: unsynced bytes lost *)

val site_label : site -> string
val sites : int -> site list
(** All milestones of a [parts]-participant commit, protocol order. *)

type cell = {
  k_site : site;
  k_gc : bool;  (** group commit on *)
  k_gid : int;  (** the victim's global transaction id *)
  k_decided : int option;  (** surviving [Decide] timestamp, if any *)
  k_fate : (int * int option) list;
      (** per shard: the victim's recovered commit timestamp *)
  k_resolutions : int;  (** in-doubt resolutions applied across shards *)
  k_failures : string list;
}

type matrix = { cells : cell list }

val ok : matrix -> bool
val pp_cell : Format.formatter -> cell -> unit
val pp : Format.formatter -> matrix -> unit

val run : ?shards:int -> ?cross_pct:float -> dir:string -> unit -> matrix
(** The full matrix: every {!sites} milestone of a two-participant
    transfer (shards 0 → 1), in both group-commit modes, each cell in
    its own subdirectory of [dir].  [shards] (min 2) adds bystander
    shards that must not be affected; [cross_pct] adds committed
    cross-shard background traffic before the victim. *)
