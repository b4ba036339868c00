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
    to younger transactions, so cycles are impossible.

    Waiting parks on the contended object via {!Sched} (woken by the
    holder's commit/abort) after a short spin.  A dead transaction's
    {!restart_pause} lasts until the transaction it lost to is done, so
    it dies at most once per older transaction (DESIGN §10).  No wait
    has a budget: park timeouts only re-check a wake-up that never
    came. *)

type conflict = {
  holder : int;  (** the lock holder's transaction id *)
  holder_priority : int option;
      (** the holder's wait-die priority, captured by the object {e in
          the same consistent section that observed the conflict} —
          [None] when the holder completed before the capture.  Wait-die
          decisions use this captured value, never a later registry
          lookup by id: holder ids can be recycled ([Txn_rt.fresh ~id]
          can register an id again) between refusal and lookup, and a
          recycled id resolves to the wrong transaction's priority. *)
}

type failure = [ `Blocked | `Conflict of conflict option ]
(** [`Blocked]: no legal response right now (partial operation) — wait
    for some transaction to commit.  [`Conflict c]: a lock conflict with
    holder [c.holder] (when known). *)

val run :
  ?on_retry:(unit -> unit) ->
  ?obj:int ->
  name:string ->
  self:Txn_rt.t ->
  (unit -> ('a, [< failure ]) result) ->
  'a
(** Attempt until [Ok].  A conflict where wait-die says "die" (an older
    holder) raises {!Txn_rt.Abort_requested} at once and leaves [obj]
    and the winner as the hint for {!restart_pause}.  Any other refusal
    waits: a brief spin, then register-and-park on [obj] until a
    release wakes it.  A lock wait ends when the younger holder
    completes; a [`Blocked] wait (a partial operation) when a commit
    makes a response legal, so it waits for good if none ever does.
    Each park is preceded by a re-attempt after registration, so a
    release can never slip between the failed attempt and the park.

    [on_retry] is called just before each re-attempt — the object layer
    uses it to stamp a [Retry] trace event.  [obj] names the contended
    object for the scheduler's waiter registry and the flight recorder's
    lock-wait span marks (one wait/resume pair per stalled invocation).
    Retry volume and wait-die deaths are also counted in the
    {!Obs.Metrics} registry ([retry.retries], [retry.wait_die_deaths]). *)

val refused :
  ?on_retry:(unit -> unit) ->
  ?obj:int ->
  name:string ->
  self:Txn_rt.t ->
  (unit -> ('a, [< failure ] as 'f) result) ->
  'f ->
  'a
(** {!run} after its first attempt was refused with the given failure:
    [run f] is [match f () with Ok v -> v | Error e -> refused f e].  A
    caller whose first attempt is a direct call builds [on_retry] and
    the attempt closure only on a refusal, so an uncontended call
    allocates neither. *)

val until_commit : priority:int -> (unit -> ('a, 'e) result) -> 'a
(** The restart loop of [Manager.run] and [Dist.Coordinator.run], for
    a transaction with [priority] whose first attempt aborted and
    anchored it ({!Txn_rt.anchor}): {!restart_pause}, then the next
    attempt, until one returns [Ok].  However it ends, the anchor is
    released: an exception out of an attempt propagates.  There is no
    attempt budget. *)

val restart_pause : key:int -> unit
(** The pause between a failed transaction attempt and its restart,
    shared by [Manager.run] and [Dist.Coordinator.run]; [key] is the
    transaction's priority.  When the current domain's last {!run}
    died under wait-die as that transaction, the pause parks on the
    object it lost until a release of the object finds the winner's
    transaction done: the attempt it lost to has completed, and the
    winner holds no anchor ({!Txn_rt.anchor}), so a winner that was
    itself restarted is waited for until it commits.  It parks at least
    once, even when the winner is done already, and a park that times
    out re-checks and parks again while the winner is live.  The hint is
    consumed; a pause with no hint (an explicit or orphan abort)
    returns at once. *)
