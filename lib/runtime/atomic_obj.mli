(** A concurrent atomic object running the hybrid locking protocol.

    This is the production engine: the {!Hybrid.Compacted} machine in an
    atomic reference, usable from multiple domains/threads.  Every update
    is one compare-and-swap publish, which also reports any horizon fold
    it made (counter, trace events, WAL checkpoint); the object mutex
    only keeps side effects — trace, WAL, recorded history — in machine
    order, and gives exclusive access to a publish that lost its CAS a
    few times in a row, so every publish lands after a bounded number of
    losses.  A transaction refused by a younger holder is recorded as
    the object's senior waiter; until its response is granted or
    blocked, or it completes, a younger transaction whose response would conflict with
    the senior's request is refused naming the senior, so wait-die
    kills it instead of letting it barge ahead.  Per the paper
    (Section 4.1): an invocation builds the transaction's view (committed
    version, plus committed-but-unforgotten intentions in timestamp
    order, plus the transaction's own intentions), chooses a response
    legal in the view, requests the lock for the resulting operation, and
    either records the operation in the intentions list or refuses so the
    caller can retry.  Commit merges intentions in timestamp order and
    triggers horizon-based compaction; abort discards intentions.

    The conflict relation is supplied at creation, so the same engine
    runs the hybrid relation and the commutativity / read-write baselines
    in apples-to-apples comparisons. *)

module Make (A : Spec.Adt_sig.S) : sig
  type op = A.inv * A.res

  type t

  type stats = {
    invocations : int;  (** successful operations recorded *)
    conflicts : int;  (** refusals due to a lock conflict *)
    blocked : int;  (** refusals because no response was legal *)
    commits : int;
    aborts : int;
    forgotten : int;  (** committed transactions folded into the version *)
    max_overtaken : int;
        (** the most compare-and-swaps one update has lost to other
            publishes: at most {!max_lost_cas} plus one per other domain
            publishing concurrently, since an update that keeps losing
            takes the object exclusively *)
  }

  val max_lost_cas : int
  (** Lost compare-and-swaps an update absorbs before it takes the
      object exclusively. *)

  val create :
    ?name:string ->
    ?cell:int ->
    ?record:bool ->
    ?trace:Obs.Trace.t ->
    ?wal:Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t ->
    ?op_label:(op -> string) ->
    conflict:(op -> op -> bool) ->
    unit ->
    t
  (** [cell] marks this object as one cell of a partitioned logical
      object (see {!Spec.Partition} and [Part.Cells]): the key is
      carried by the object's WAL [Object]/[Intention]/[Checkpoint]
      records, surfaced as a ["cell"] field in the ["locks"] snapshot
      row, and attached to the object's {!Obs.Attrib} registration so
      attribution reports can group per-cell rows under their logical
      object.  [record] keeps the object-local event history for offline
      atomicity checking (tests); off by default.  [trace] attaches an
      explicit trace ring as this object's event sink, bypassing the
      {!Obs.Control} switch; without it events go to {!Obs.Trace.global}
      whenever observability is enabled.  [wal] makes the object
      durable: an [Object] record declares it on creation, every chosen
      operation appends an [Intention] record (the transaction's
      intentions list, paper Section 5.1), and each horizon advance
      appends a [Checkpoint] record carrying the horizon timestamp and
      the folded version — sound to recover from because the horizon
      only grows (Theorem 24).  The object must share its manager's
      {!Wal.Log.t}.  [op_label] names interned operations for
      conflict-attribution reports (registered with {!Obs.Attrib} on
      first occurrence); the default prints ["inv/res"] with the ADT's
      printers — pass the spec's constructor-level [op_label] to merge
      per-value cells into one figure row. *)

  val name : t -> string

  val key : t -> int
  (** The process-unique object key tagging this object's trace
      entries. *)

  val cell : t -> int option
  (** The cell key supplied at creation, if this object is one cell of a
      partitioned logical object. *)

  val try_invoke : t -> Txn_rt.t -> A.inv -> (A.res, Retry.failure) result
  (** One protocol attempt.  [`Conflict h]: every legal response needs a
      lock held by another active transaction ([h] is one holder's id),
      or the chosen response conflicts with the request of an older
      transaction waiting on this object ([h] is that senior).
      [`Blocked]: the invocation has no legal response in the view
      (partial operation).  On success the operation is recorded and the
      object registered with the transaction handle. *)

  val invoke : t -> Txn_rt.t -> A.inv -> A.res
  (** {!try_invoke} under {!Retry.run}: waits on a younger holder or a
      [`Blocked] response, with wait-die deadlock resolution; raises
      {!Txn_rt.Abort_requested} when the transaction must restart.  A
      [`Blocked] invocation waits until a commit makes a response
      legal; a caller that must not wait uses {!try_invoke}. *)

  val committed_states : t -> A.state list
  (** The state set reached by all committed transactions' operations in
      timestamp order (forgotten prefix extended by remembered
      intentions) — e.g. for draining or inspecting an object after a
      run.  Singleton for deterministic ADTs. *)

  val stats : t -> stats
  val live_ops : t -> int

  val history : t -> Model.History.Make(A).t
  (** The recorded object-local history (empty unless [record] was set).
      Feed it to {!Model.Atomicity} to check hybrid atomicity. *)

  val decode_op : t -> int -> op option
  (** Decode an interned operation code carried by this object's
      {!Obs.Trace.Lock_refused} entries back to the typed operation
      pair; [None] for codes this object never issued. *)

  val replayed_history : t -> Model.History.Make(A).t
  (** The object-local history reconstructed from the trace ring (the
      explicit [trace] sink if one was attached, {!Obs.Trace.global}
      otherwise) through this object's payload intern tables — the
      observability path's independent account of what {!history}
      records.  When the same window of execution was both traced and
      recorded, the two are equal. *)

  val replay_check : ?online:bool -> t -> (unit, string) result
  (** {!Obs.Replay.Make.check} on {!replayed_history}: well-formedness,
      the timestamp-generation constraint, and hybrid atomicity of the
      traced run. *)

  (** {1 Live introspection} *)

  val register_introspection : t -> unit
  (** Register this object with the process introspection registry:
      a ["locks"] snapshot provider (active transactions and their
      intentions-list depths, conflict/blocked counts), a ["horizon"]
      provider (horizon, clock, folded-up-to timestamps, forgotten /
      remembered / live-op counts), and callback gauges [obj_live_ops]
      and [obj_compaction_debt] labelled by object name.  Keyed by name
      — re-registering a recreated object under the same name replaces
      the old providers, so a long-running server keeps a bounded set.
      Opt-in: short-lived benchmark objects should not accumulate
      registrations. *)

  val unregister_introspection : t -> unit

  val register_audit : ?name:string -> t -> string
  (** Register {!replay_check} as an {!Obs.Sampler} audit closure under
      [name] (default ["replay/<object name>"]); returns the name used.
      If the object's trace ring has wrapped, the closure counts the
      lost window ({!Obs.Sampler.skip_window_lost}) instead of reporting
      a spurious verdict on a truncated history. *)

  (** {1 Snapshot reads} *)

  val snapshot_source : t -> Snapshot.source
  (** Hooks for {!Snapshot.read}: pin/unpin this object's compaction
      horizon around a read-only transaction. *)

  val read_at : t -> at:Model.Timestamp.t -> A.inv -> A.res option
  (** Invoke against the committed state as of the snapshot timestamp
      [at]: lock-free, side-effect-free, invisible to writers.  [None]
      when the operation has no legal response there (partial
      operation).  Raises {!Snapshot.Unavailable} when the object has
      already folded past [at] (callers go through {!Snapshot.read},
      which pins first and retries). *)
end
