(** Deterministic (virtual-time) versions of the concurrency
    experiments.

    Same workloads and conflict relations as {!Experiments}, run under
    {!Det_sim}: the numbers are exactly reproducible — a pure function
    of the scripts — so the paper's "who waits on whom" claims become
    assertable equalities rather than noisy wall-clock trends.  The
    [makespan] column is the virtual completion time (smaller = more
    admitted concurrency); [concurrency] is busy-time / makespan
    (workers = perfect overlap, 1 = serialized). *)

type row = {
  label : string;
  committed : int;
  restarts : int;
  conflicts : int;
  blocked : int;
  makespan : int;
  concurrency : float;
}

type table = { id : string; title : string; params : string; rows : row list }

val pp_table : Format.formatter -> table -> unit

val workers : int

val det_queue_enq : unit -> table
val det_queue_mixed : unit -> table
val det_account : unit -> table
val det_semiqueue : unit -> table
val by_id : (string * (unit -> table)) list
(** Every table above by its command-line id, in run order. *)

val all : unit -> table list
