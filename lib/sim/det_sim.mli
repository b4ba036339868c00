(** Deterministic virtual-time simulation of the runtime.

    The wall-clock driver ({!Driver}) measures real execution but its
    numbers vary run to run and depend on the host.  This simulator runs
    the {e shipped} runtime — {!Runtime.Manager}, {!Runtime.Atomic_obj}
    and {!Runtime.Retry}'s wait-die, park/notify, senior rule and
    restart pause — with each worker an effect-handler fiber on the
    calling domain, under a virtual clock where one unit is 1 µs.  Every
    operation takes 100 units of think time.  A park is the one point
    where a fiber yields to another ({!Runtime.Sched.simulate}): the
    handler resumes it once a release signals its ticket, or at its
    virtual deadline ([Retry]'s 1 ms backstop is 1000 units).  Signalled
    parks resume in park order, timers in deadline order with ties in
    suspension order, so every result — and every count read from the
    runtime's own statistics — is a pure function of the scripts:
    exactly reproducible and comparable across machines.

    The virtual {e makespan} (time when the last transaction commits)
    measures how much concurrency the conflict relation admitted: with
    [workers] workers running identical scripts of total think time [T],
    a conflict-free relation yields a makespan near [T] (perfect
    overlap) while full mutual exclusion yields near [workers × T]. *)

type result = {
  committed : int;  (** [Manager.stats]: committed transactions *)
  restarts : int;  (** [Manager.stats]: aborted attempts (wait-die deaths) *)
  max_restarts : int;  (** the most restarts of any one transaction *)
  conflicts : int;  (** [Atomic_obj.stats]: refusals due to lock conflicts *)
  blocked : int;  (** [Atomic_obj.stats]: refusals with no legal response *)
  timeouts : int;  (** [Sched.stats]: parks ended by their backstop *)
  makespan : int;  (** virtual completion time of the last commit *)
  busy : int;  (** total virtual think time spent in committed work *)
}

val concurrency : result -> float
(** [busy / makespan] — effective parallelism achieved (1.0 = fully
    serialized, [workers] = perfect overlap). *)

module Make (A : Spec.Adt_sig.S) : sig
  type script = A.inv list list
  (** The transactions (each a list of invocations) one worker runs,
      in order. *)

  type nonrec result = result = {
    committed : int;
    restarts : int;
    max_restarts : int;
    conflicts : int;
    blocked : int;
    timeouts : int;
    makespan : int;
    busy : int;
  }
  (** {!result}, re-exported with its fields. *)

  val concurrency : result -> float

  val run :
    ?prefill:A.inv list ->
    conflict:(A.inv * A.res -> A.inv * A.res -> bool) ->
    script array ->
    result
  (** Simulate the given per-worker scripts to completion on one fresh
      manager and object.  [prefill] operations are committed as one
      transaction before virtual time 0 and are not counted.  Raises
      [Failure] if a prefill operation is refused, or if virtual time
      passes the last finished operation or commit by 10{^6} units
      (only backstop timeouts firing: every remaining worker blocked
      with nothing left to commit). *)
end
