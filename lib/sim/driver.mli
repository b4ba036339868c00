(** Concurrent workload driver: the run size, the domain runners and
    the workload value hash every experiment draws from ({!Workload}
    defines the experiments themselves).

    {!loop} spawns [domains] OCaml domains; each runs [txns] steps back
    to back.  A step is not wrapped in a transaction — coordinator
    bodies run their own — and {!run} is the common case of one
    {!Runtime.Manager} transaction per step.  {!start} runs a step until
    {!stop}, for the long-running serve workloads.

    [think_us] sleeps between a transaction's operations (inside the
    body, via {!think}), modelling per-operation work done while holding
    locks — without it, transactions commit too fast for conflicts to
    materialize and all protocols look alike.  Sleeping (not spinning)
    lets admitted concurrency show up as overlapping waits even on
    single-core hosts. *)

type scale = { domains : int; txns : int; think_us : float }
(** [txns] is per domain. *)

val default_scale : scale
val quick_scale : scale
(** Small sizes for tests. *)

type result = {
  committed : int;
  attempts : int;  (** includes aborted-and-retried attempts *)
  wall_seconds : float;
  throughput : float;  (** committed transactions per second *)
}

val think : float -> unit
(** [think us] sleeps for [us] microseconds (none when [us <= 0]). *)

val pseudo : seed:int -> int -> int -> int -> int
(** [pseudo ~seed domain seq k]: the deterministic workload value
    sequence, decorrelated across its three indices; [seed] shifts the
    whole sequence ([0] reproduces the historical values). *)

val loop : scale -> (domain:int -> seq:int -> 'a) -> 'a array array * float
(** Closed loop: domain [d] runs [step ~domain:d ~seq] for [seq = 0 ..
    txns - 1] ([think_us] is the step's business).  Returns each
    domain's step results in [seq] order, and the wall-clock seconds. *)

val run :
  scale ->
  mgr:Runtime.Manager.t ->
  (domain:int -> seq:int -> Runtime.Txn_rt.t -> unit) ->
  result
(** {!loop} with each step one [mgr] transaction; measured from what
    [mgr]'s counters gain over the run, so transactions committed before
    it (a prefill) do not count. *)

type workers

val start : domains:int -> (domain:int -> seq:int -> unit) -> workers
(** Spawn [domains] domains, each running [step] with [seq = 0, 1, ...]
    until {!stop}. *)

val stop : workers -> unit
(** Signal the workers and join their domains.  Idempotent. *)

val ensure_dir : string -> unit
(** [mkdir dir], tolerating an existing one. *)
