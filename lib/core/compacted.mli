(** The LOCK protocol with Section 6 compaction applied.

    {!Lock_machine} is the paper's formal description: it retains the
    intentions list of every committed transaction forever, which is
    "clearly not practical" (Section 5.1).  This module is the practical
    variant sketched in Section 6: committed transactions whose timestamp
    is at or below the {e horizon} (Definition 20) are {e forgotten} —
    their intentions are applied, in timestamp order, to a materialized
    {e version}, and both their intentions and their timestamp are
    discarded.  Theorem 24 (the common prefix grows monotonically under
    every accepted event) is what makes the fold sound; the test suite
    checks observational equivalence with {!Lock_machine} on random
    histories and the monotonicity property itself.

    The version is a {e set} of specification states, which collapses to
    a singleton for deterministic ADTs; SemiQueue-style nondeterminism is
    handled without special cases.

    {b Memoised views.}  Each active transaction's entry keeps its
    operations, the state set they produce on top of the committed
    state (its {e view}), and the committed state set that view was
    built on.  The memo is valid exactly when that base is physically
    the current committed state set — an immutable value that only a
    Commit replaces (a fold leaves it alone) — so building a view on the
    uncontended path costs a pointer comparison.  Any other view is
    rebuilt by replay and memoised afresh on the next grant.

    {b One pass per invocation.}  Choosing a response steps every state
    of the view once and groups the outcomes by response, in order of
    first appearance — the candidate order — each with its successor
    states.  A granted response's group is exactly the view extended by
    that operation, so it becomes the memo as it is, with no second
    step.  {!step}'s [Respond], which serves external histories, checks
    the legality of the response it is given.

    {b Completion facts.}  The machine keeps no record of committed
    transactions, so its memory stays proportional to the live state.
    It keeps only the set of aborted transactions, because the paper
    (Section 2) lets an aborted transaction keep invoking, and a runtime
    can deliver an Abort ahead of an invocation already in flight. *)

module Make (A : Spec.Adt_sig.S) : sig
  module H : module type of Model.History.Make (A)
  module L : module type of Lock_machine.Make (A)

  type op = A.inv * A.res
  type t

  val create : conflict:(op -> op -> bool) -> t

  val step : t -> H.event -> (t, L.refusal) result
  (** Accepts and refuses exactly as {!Lock_machine.Make.step} does
      (the compaction is transparent) on every history in which a
      committed transaction issues no further event.  That is the only
      narrowing: an aborted transaction's later invocations are accepted
      and its responses refused, as in the formal machine.  The runtime
      stays inside the contract — only a transaction's owner commits it,
      and an object refuses to run an invocation for a committed
      handle. *)

  val run : conflict:(op -> op -> bool) -> H.t -> (t, H.event * L.refusal) result
  val available_responses : t -> Model.Txn.t -> A.res list

  type conflict_info = {
    c_holder : Model.Txn.t;  (** one holder of a conflicting lock *)
    c_requested : op;  (** the operation whose lock was refused *)
    c_held : op;  (** the holder's operation it conflicts with *)
  }
  (** Attribution of a refused lock request: exactly which entry of the
      installed Conflict relation fired, and against whom — the raw
      material for the observability layer's conflict matrices
      ([Obs.Attrib]) and for deadlock-resolution policies. *)

  val choose_response :
    t ->
    Model.Txn.t ->
    (A.res * t, [ `Blocked | `Conflict of conflict_info option ]) result
  (** Execute the pending invocation of the given transaction: pick the
      first response legal in its view whose lock can be granted, record
      the operation and return the successor machine.  Candidates come
      in order of first appearance over the view's states, and the
      granted one leaves its successor states as the transaction's
      memoised view.  [`Blocked] — no
      response is legal in the view (partial operation, e.g. [Deq] on an
      empty queue); [`Conflict c] — legal responses exist but every one
      conflicts with a lock held by another active transaction ([c]
      attributes the last such conflict).  This is the entry point used
      by the concurrent runtime. *)

  val invoke_and_choose :
    t ->
    Model.Txn.t ->
    A.inv ->
    ( A.res * t,
      [ `Blocked | `Conflict of conflict_info option ] * t )
    result
  (** The Invoke step for the given transaction's invocation — skipped
      when that invocation is already pending, since a refused
      invocation stays pending — and {!choose_response} on the result,
      as one successor: [Ok (r, t')] is what stepping [Invoke] and then
      choosing would give, built without the intermediate machine.
      [Error (refusal, t')] carries the machine with the invocation
      pending, which holds the transaction's timestamp lower bound and
      so must be kept.  [choose_response t q] is this function applied
      to [q]'s pending invocation. *)

  (** {1 Observers} *)

  val pending : t -> Model.Txn.t -> A.inv option

  val committed_states : t -> A.state list
  (** The state set reached by every committed transaction's operations
      in timestamp order: the version extended by the remembered
      committed intentions. *)

  val version_states : t -> A.state list
  (** The state set reached by the forgotten common prefix. *)

  val forgotten : t -> int
  (** Number of committed transactions folded into the version so far. *)

  val remembered : t -> int
  (** Committed transactions not yet forgettable (timestamp above the
      horizon). *)

  val horizon : t -> Xts.t

  val clock : t -> Xts.t
  (** The largest commit timestamp this object has seen.  The distance
      from {!folded_upto} up to here is the object's {e compaction
      debt}: commits the horizon has not yet allowed it to fold
      (Theorem 24 says the gap is transient — it closes as soon as the
      bounding active transactions complete). *)

  val live_ops : t -> int
  (** Total operations currently retained (committed-but-remembered plus
      active intentions) — the measure of the memory the compaction
      saves. *)

  val active : t -> (Model.Txn.t * int) list
  (** Active transactions (intentions recorded, neither committed nor
      aborted) with the length of each one's intentions list, ascending
      by transaction id — the lock-table rows the introspection server's
      [/locks] endpoint reports. *)

  type summary = {
    s_folded_upto : Xts.t;
    s_forgotten : int;
    s_remembered : int;
    s_live_ops : int;
  }
  (** One consistent snapshot of the compaction bookkeeping, for
      observability hooks: callers diff two summaries around a state
      transition to detect a fold (Theorem 24 guarantees [s_folded_upto]
      and [s_forgotten] only ever grow — emitted trace events assert
      exactly that). *)

  val summary : t -> summary

  (** {1 Snapshots (read-only transactions)}

      The general form of hybrid atomicity (paper Section 7.1, after
      [22, 23]) lets read-only transactions choose their timestamp when
      they {e start} and serialize there, lock-free — the "static
      atomic" ingredient of the hybrid.  The machinery needed is just
      more horizon bookkeeping: a {e pin} at timestamp [ts] acts as a
      lower bound, stopping the horizon (and hence folding) from passing
      [ts], so the committed state {e as of} [ts] stays reconstructable
      from the version plus the remembered intentions with timestamps at
      or below [ts]. *)

  val pin : t -> Model.Txn.t -> Model.Timestamp.t -> t
  (** Register a horizon pin under the given (reader) transaction id.
      Bookkeeping only: the accepted language is unchanged. *)

  val unpin : t -> Model.Txn.t -> t
  (** Drop the pin and fold whatever became foldable. *)

  val folded_upto : t -> Xts.t
  (** The largest commit timestamp already folded into the version. *)

  val states_at : t -> at:Model.Timestamp.t -> A.state list option
  (** The committed state set as of timestamp [at]: the version extended
      by remembered committed intentions with timestamp [<= at].  [None]
      when the version has already folded transactions beyond [at] (the
      snapshot is too old to reconstruct — callers pin first to prevent
      this). *)
end
