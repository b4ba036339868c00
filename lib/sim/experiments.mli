(** The wall-clock runner of the measured experiments (EXP-* in
    DESIGN.md / EXPERIMENTS.md; each is defined once in {!Workload}).

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

val waitfor_verdict : Obs.Waitfor.report -> (unit, string) result
(** [Error] naming every cycle of the waits-for graph — the verdict of
    {!waitfor_failures} and of the serve loops' [waitfor/*] audits. *)

val windows : table list -> Obs.Trace.entry list
(** Every row's trace window, concatenated in run order (timestamps are
    monotonic across rows, object keys and transaction ids are
    process-unique, so the result is directly exportable). *)

val run : ?scale:Driver.scale -> ?seed:int -> ?wal:Wal.Log.t -> Workload.t -> table
(** Run every relation row of an experiment on [scale]'s domains (default
    {!Driver.default_scale}), one fresh manager and object per row: the
    row's prefill as one transaction, then its script.  [seed] (default
    [0]) is passed to the script, shifting its operation values
    reproducibly; at 4 domains x 25 transactions a row runs the
    transactions {!Det_experiments} simulates.  [wal] runs durably: the
    manager writes the write-ahead commit rule against the given log and
    every object logs intentions and checkpoints into it (see {!Wal}).
    All rows of a table share the log — object names are unique, so
    recovery keeps them apart. *)

val partition_gate : ?factor:int -> table -> (int * int, string) result
(** The CI assertion on a {!Workload.directory} table run with observability
    on: the cell-blind row's fired-conflict mass must be positive and at
    least [factor] (default [5]) times the cell-locked row's.  [Ok
    (blind, celled)] carries both masses; [Error] explains which side
    fell short (including observability being off). *)

val by_id :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?key_skew:float ->
  ?cells:int ->
  ?wal:Wal.Log.t ->
  unit ->
  (string * (unit -> table)) list
(** {!Workload.paper} and {!Workload.directory} by their command-line
    ids, each a {!run}, in run order: [queue], [queue-mixed], [account],
    [semiqueue], [directory]. *)
