(** Deterministic (virtual-time) runs of the concurrency experiments.

    The {!Workload} definitions {!Experiments} runs on real domains, run
    under {!Det_sim} at a fixed {!workers} workers x 25 transactions: the
    numbers are exactly reproducible — a pure function of the scripts
    and the seed — so the paper's "who waits on whom" claims become
    assertable equalities rather than noisy wall-clock trends.  The
    [makespan] column is the virtual completion time (smaller = more
    admitted concurrency); [concurrency] is busy-time / makespan
    (workers = perfect overlap, 1 = serialized). *)

type row = {
  label : string;
  committed : int;
  restarts : int;
  max_restarts : int;  (** the most restarts of any one transaction *)
  conflicts : int;
  blocked : int;
  timeouts : int;  (** parks ended by the 1 ms backstop, not a release *)
  makespan : int;
  concurrency : float;
}

type table = { id : string; title : string; params : string; rows : row list }

val pp_table : Format.formatter -> table -> unit

val workers : int

val run : seed:int -> Workload.t -> table
(** Simulate every relation row of an experiment, each on a fresh
    manager and object, passing [seed] to the scripts; seed 0 prints the
    tables of [test/experiments_deterministic.expected].  Raises
    [Invalid_argument] on a {!Workload.Cells} row. *)

val by_id : seed:int -> (string * (unit -> table)) list
(** {!Workload.paper}, each a {!run}, by command-line id in run order. *)

val all : unit -> table list
(** {!Workload.paper}, each a {!run} at seed 0. *)
