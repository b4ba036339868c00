(** The measured experiments (EXP-* in DESIGN.md / EXPERIMENTS.md).

    The paper proves which interleavings each conflict relation admits
    but reports no measurements; these experiments quantify the claims on
    real multicore execution.  Every experiment runs the {e same}
    workload through the {e same} engine under different conflict
    relations — the paper's hybrid relation against the
    commutativity-based and classical read/write-locking baselines — and
    reports committed throughput, transaction-level retries, and
    object-level lock refusals, together with the machine-independent
    conflict probability of the relation under the workload's operation
    mix ({!Conflict_profile}).

    Expected shapes (asserted loosely by the test suite, printed exactly
    by [bin/main.exe experiments]):
    - enqueue-only: hybrid (Fig 4-2) refuses nothing; Fig 4-3 /
      commutativity and 2PL-RW serialize concurrent enqueuers.
    - mixed producer/consumer queue: Fig 4-3 beats Fig 4-2 (incomparable
      relations — the paper's point that minimal dependency relations are
      not unique).
    - account: hybrid admits Credit/Post/Debit concurrency; commutativity
      serializes Post against everything; RW serializes everything.
    - SemiQueue vs Queue: nondeterministic [Rem] spreads consumers across
      items while FIFO [Deq] fights over the unique front. *)

type row = {
  label : string;
  committed : int;
  attempts : int;  (** transaction attempts, including aborted ones *)
  op_conflicts : int;  (** lock refusals at the object *)
  op_blocked : int;  (** attempts with no legal response *)
  throughput : float;  (** committed transactions per second *)
  conflict_prob : float;  (** deterministic op-pair conflict probability *)
  atomic : (unit, string) result option;
      (** trace-replay hybrid-atomicity verdict for the run
          ({!Obs.Replay}); [None] when observability was disabled, and
          an [Error] without replay when the run overflowed the trace
          ring ({!Obs.Trace.dropped}). *)
  attrib : Obs.Attrib.t option;
      (** per-op-pair conflict attribution folded from the run's trace
          window; [None] when observability was disabled. *)
  waitfor : Obs.Waitfor.report option;
      (** waits-for graph audit of the same window (must be acyclic
          under wait-die); [None] when observability was disabled. *)
  window : Obs.Trace.entry list;
      (** the raw trace window the run produced (empty when
          observability was disabled) — feed it to {!Obs.Export}. *)
}

type table = { id : string; title : string; params : string; rows : row list }

val pp_table : Format.formatter -> table -> unit

val pp_conflicts : Format.formatter -> table -> unit
(** Per-row conflict attribution (top cells, top holders), closing with
    the hybrid-vs-commutativity fired-conflict-mass comparison — the
    empirical counterpart of Theorem 28 — when the table has both
    rows. *)

val pp_waitfor : Format.formatter -> table -> unit
(** Per-row wait-for audit reports. *)

val violations : table list -> (string * string * string) list
(** All [(table id, row label, error)] triples whose replay check
    failed — what the CLI and the CI smoke job key their exit status
    on. *)

val waitfor_failures : table list -> (string * string * string) list
(** All [(table id, row label, cycles)] triples whose waits-for graph
    had a cycle — same exit-status contract as {!violations}: wait-die
    makes cycles impossible, so any cycle is a protocol bug. *)

val windows : table list -> Obs.Trace.entry list
(** Every row's trace window, concatenated in run order (timestamps are
    monotonic across rows, object keys and transaction ids are
    process-unique, so the result is directly exportable). *)

type scale = { domains : int; txns : int; think_us : float }
(** [txns] is per domain. *)

val default_scale : scale
val quick_scale : scale
(** Small sizes for tests. *)

(** Every experiment takes [?seed] (default [0], which reproduces the
    historical workload values) to shift the deterministic operation-value
    sequence, and [?wal] to run durably: the manager writes the
    write-ahead commit rule against the given log and every object logs
    intentions and checkpoints into it (see {!Wal}).  All rows of a table
    share the log — object names are unique, so recovery keeps them
    apart. *)

val exp_queue_enq : ?scale:scale -> ?seed:int -> ?wal:Wal.Log.t -> unit -> table
(** EXP-QUEUE(a): enqueue-only transactions (4 enqueues each). *)

val exp_queue_mixed : ?scale:scale -> ?seed:int -> ?wal:Wal.Log.t -> unit -> table
(** EXP-QUEUE(b): half the domains enqueue, half dequeue, over a seeded
    queue. *)

val exp_account : ?scale:scale -> ?seed:int -> ?wal:Wal.Log.t -> unit -> table
(** EXP-ACCOUNT: credit / post / debit transaction mix on one account,
    seeded with a large balance. *)

val exp_semiqueue : ?scale:scale -> ?seed:int -> ?wal:Wal.Log.t -> unit -> table
(** EXP-SEMIQ: the producer/consumer workload on a SemiQueue vs. a FIFO
    queue. *)

val exp_directory :
  ?scale:scale ->
  ?seed:int ->
  ?key_skew:float ->
  ?keys:int ->
  ?cells:int ->
  ?wal:Wal.Log.t ->
  unit ->
  table
(** EXP-DIRECTORY: the same Zipf([key_skew])-keyed insert/remove/member
    mix (default uniform over [keys = 64]) through three lock
    granularities on a Directory — a whole-object machine that is blind
    to keys ({!Adt.Directory.conflict_whole_object}), a whole-object
    machine with the key-aware relation, and a {!Part.Pdir} machine of
    [cells] independently locked cells.  The analytic [conflict_prob]
    of the key-aware rows is the blind probability scaled by the Zipf
    collision factor Σp² ({!Conflict_profile.Keys.collision}). *)

val partition_gate : ?factor:int -> table -> (int * int, string) result
(** The CI assertion on an {!exp_directory} table run with observability
    on: the cell-blind row's fired-conflict mass must be positive and at
    least [factor] (default [5]) times the cell-locked row's.  [Ok
    (blind, celled)] carries both masses; [Error] explains which side
    fell short (including observability being off). *)

val all : ?scale:scale -> ?seed:int -> ?wal:Wal.Log.t -> unit -> table list
