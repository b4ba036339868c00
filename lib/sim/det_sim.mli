(** Deterministic discrete-event simulation of the protocol.

    The wall-clock driver ({!Driver}) measures real execution but its
    numbers vary run to run and depend on the host.  This simulator runs
    the {e same} protocol machine ({!Hybrid.Compacted}) under a virtual
    clock: workers execute scripted transactions whose operations take a
    fixed virtual think time; a refused operation retries after a
    virtual quantum; wait-die aborts restart the transaction after a
    virtual backoff.  Everything — including the tie-breaking of
    simultaneous events — is a pure function of the configuration, so
    results are exactly reproducible, making "who waits on whom" claims
    assertable in tests and comparable across machines.

    The virtual {e makespan} (time when the last transaction commits)
    measures how much concurrency the conflict relation admitted: with
    [workers] workers running identical scripts of total think time [T],
    a conflict-free relation yields a makespan near [T] (perfect
    overlap) while full mutual exclusion yields near [workers × T]. *)

module Make (A : Spec.Adt_sig.S) : sig
  type script = A.inv list list
  (** The transactions (each a list of invocations) one worker runs,
      in order. *)

  type config = {
    think : int;  (** virtual time units per operation *)
    retry_quantum : int;  (** delay before retrying a refused operation *)
    restart_delay : int;  (** delay before restarting an aborted transaction *)
    max_attempts : int;  (** per-transaction restart limit *)
  }

  val default_config : config

  type result = {
    committed : int;
    restarts : int;  (** wait-die transaction restarts *)
    conflicts : int;  (** operation refusals due to lock conflicts *)
    blocked : int;  (** operation refusals with no legal response *)
    makespan : int;  (** virtual completion time of the last commit *)
    busy : int;  (** total virtual think time spent in committed work *)
  }

  val concurrency : result -> float
  (** [busy / makespan] — effective parallelism achieved (1.0 = fully
      serialized, [workers] = perfect overlap). *)

  val run :
    ?config:config ->
    ?prefill:A.inv list ->
    conflict:(A.inv * A.res -> A.inv * A.res -> bool) ->
    script array ->
    result
  (** Simulate the given per-worker scripts to completion.  [prefill]
      operations are committed as one instantaneous transaction at
      virtual time 0 before measurement starts (e.g. stocking a queue
      for consumers).  Raises [Failure] if some transaction exceeds
      [max_attempts] or the simulation cannot make progress (every
      remaining worker blocked on a partial operation with nothing left
      to commit). *)
end
