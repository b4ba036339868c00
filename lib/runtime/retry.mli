(** Conflict-retry with wait-die deadlock resolution.

    The paper's protocol refuses a lock request and retries the
    invocation later (Section 4.1; Avalon/C++'s [when] guard retries
    "after an arbitrary duration").  Pure retrying cannot resolve
    hold-and-wait cycles, so we layer the classical wait-die policy on
    top: on a conflict the requester compares its {!Txn_rt.priority}
    (birth order, preserved across restarts) with the lock holder's —
    an {e older} requester waits and retries, a {e younger} one dies
    (raises {!Txn_rt.Abort_requested}) so the manager restarts it with
    its original priority.  Waits-for edges then only point from older
    to younger transactions, so cycles are impossible, and a restarted
    transaction eventually becomes the oldest in the system, so it
    cannot starve.

    Waiting parks on the contended object via {!Sched} (woken by the
    holder's commit/abort) after a short spin; the jittered
    exponential backoff ({!Backoff.retry_delay}) remains as each park's
    timeout backstop. *)

type conflict = {
  holder : int;  (** the lock holder's transaction id *)
  holder_priority : int option;
      (** the holder's wait-die priority, captured by the object {e in
          the same consistent section that observed the conflict} —
          [None] when the holder completed before the capture.  Wait-die
          decisions use this captured value, never a later registry
          lookup by id: holder ids can be recycled (coordinators
          re-register explicit ids) between refusal and lookup, and a
          recycled id resolves to the wrong transaction's priority. *)
}

type failure = [ `Blocked | `Conflict of conflict option ]
(** [`Blocked]: no legal response right now (partial operation) — wait
    for some transaction to commit.  [`Conflict c]: a lock conflict with
    holder [c.holder] (when known). *)

val run :
  ?retries:int ->
  ?on_retry:(unit -> unit) ->
  ?obj:int ->
  name:string ->
  self:Txn_rt.t ->
  (unit -> ('a, [< failure ]) result) ->
  'a
(** Attempt until [Ok].  Conflicts against a younger holder (or unknown
    holder, or [`Blocked]) are retried — a brief spin, then register-and-park
    on the contended object with the seeded, jittered exponential
    backoff ({!Backoff.retry_delay}, capped ~1ms) as timeout — at most
    [retries] times (default 500) before dying; conflicts where
    wait-die says "die" raise {!Txn_rt.Abort_requested} immediately.
    Each park is preceded by a re-attempt after registration, so a
    release can never slip between the failed attempt and the park.

    [on_retry] is called just before each re-attempt — the object layer
    uses it to stamp a [Retry] trace event.  [obj] names the contended
    object for the scheduler's waiter registry and the flight recorder's
    lock-wait span marks (one wait/resume pair per stalled invocation).
    Retry volume, wait-die deaths and give-ups are also counted in the
    {!Obs.Metrics} registry ([retry.retries], [retry.wait_die_deaths],
    [retry.give_ups]). *)

val restart_pause : key:int -> attempt:int -> unit
(** The pause between a failed transaction attempt and its restart,
    shared by [Manager.run] and [Dist.Coordinator.run]: the seeded,
    jittered {!Backoff.restart_delay} for [key] (the transaction's
    stable priority) and [attempt].  When the current domain's last
    {!run} died on a conflict (wait-die or give-up), the pause parks on
    that object, so a release restarts the transaction at once; a
    wake-up that comes while the transaction it lost to is still live
    does not end the pause.  The delay bounds the pause.  The hint is
    consumed, and a pause with no recorded death sleeps for the
    delay. *)
