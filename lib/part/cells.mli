(** A keyed table of independently locked per-cell machines — the
    runtime realization of {!Spec.Partition}.

    Each cell is a complete {!Runtime.Atomic_obj} under its own mutex
    with its own LOCK machine, compaction horizon, WAL sub-object (cell
    key threaded through [Object]/[Intention]/[Checkpoint] records) and
    {!Obs.Attrib} registration — so the conflict-attribution matrices
    and the [/locks] endpoint show per-cell rows, and checkpointed
    recovery works per cell with no new recovery logic.  Cells are
    installed lazily: the fast path to a live cell is a single atomic
    load, and untouched cells cost nothing.

    Soundness is {!Spec.Partition}'s obligation, not this module's: the
    table implements [Spec.Partition.restrict conflict] structurally
    (different cells never test operations against each other), which
    preserves hybrid atomicity exactly when that restriction is still a
    dependency relation.  The partition test suite checks this with
    {!Spec.Dependency.Make.is_dependency_relation} for every shipped
    partition and keeps the unsound ones as negative cases. *)

module Make (A : Spec.Adt_sig.S) : sig
  module O : module type of Runtime.Atomic_obj.Make (A)

  type t

  val create :
    ?name:string ->
    ?record:bool ->
    ?trace:Obs.Trace.t ->
    ?wal:Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t ->
    ?op_label:(O.op -> string) ->
    cells:int ->
    conflict:(O.op -> O.op -> bool) ->
    unit ->
    t
  (** A table of [cells] keyed cells plus one whole-object fallback.
      All per-object options are inherited by every cell; cell [k] is
      named ["<name>/cell<k>"] and created with [~cell:k]. *)

  val name : t -> string
  val n_cells : t -> int

  val cell : t -> int -> O.t
  (** The cell at a key in [\[0, n_cells)], installing it on first use. *)

  val fallback : t -> O.t
  (** The whole-object fallback cell (named ["<name>/whole"]).  A
      separate machine cannot conflict with operations already routed to
      keyed cells, so routing here is sound only when {e every}
      operation of the object routes here (whole-object locking riding
      the partition plumbing).  An ADT with genuinely mixed traffic must
      instead make the operation a wildcard in its partition spec and
      broadcast it across the keyed cells (see [Part.Paccount]'s
      [Post]). *)

  val try_invoke :
    t -> Runtime.Txn_rt.t -> cell:int option -> A.inv -> (A.res, Runtime.Retry.failure) result

  val invoke : t -> Runtime.Txn_rt.t -> cell:int option -> A.inv -> A.res
  (** Invoke on the cell at the key ([None] = {!fallback}). *)

  val created : t -> (int option * O.t) list
  (** Materialized cells in key order, [None] being the fallback. *)

  val stats : t -> O.stats
  (** Field-wise sum over materialized cells. *)

  val committed_states_by_cell : t -> (int option * A.state list) list

  val replay_check : ?online:bool -> t -> (unit, string) result
  (** Replay-audit every materialized cell; first failure wins.  Each
      cell is an atomic object in its own right and local atomicity
      composes, so all-cells-pass is the partition's correctness
      oracle. *)

  val register_introspection : t -> unit
  (** Register every materialized cell with the introspection registry
      (["locks"]/["horizon"] providers carry the cell key) and keep
      registering cells as they are installed. *)

  val unregister_introspection : t -> unit
end
