(** Head/tail-striped FIFO queue — lock striping, not state sharding.

    Queue state cannot be split into independent per-cell machines (a
    standalone Deq cell has no legal response on its own empty state),
    so the cells here are {e lock stripes} over one state machine: the
    installed relation is [Spec.Partition.restrict] of a base relation
    under the head/tail assignment {!Adt.Fifo_queue.cell_of_inv}.  With
    the default Figure 4-3 base the restriction drops nothing and is
    certified sound by {!validate}; with Figure 4-2
    ({!Adt.Fifo_queue.conflict_hybrid}) it drops the cross-stripe
    Deq-depends-on-Enq pairs and {!validate} returns the Definition-3
    counterexample — the partition tests assert both.  Interned
    operation labels are prefixed with their stripe (["head:Deq"],
    ["tail:Enq"]) so attribution matrices and the [/locks] endpoint
    show per-stripe rows. *)

module A = Adt.Fifo_queue
module P : module type of Spec.Partition.Make (Adt.Fifo_queue)
module O : module type of Runtime.Atomic_obj.Make (Adt.Fifo_queue)

type t

val create :
  ?name:string ->
  ?record:bool ->
  ?trace:Obs.Trace.t ->
  ?wal:Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t ->
  ?conflict:(A.op -> A.op -> bool) ->
  unit ->
  t
(** [conflict] is the {e base} relation (default
    {!Adt.Fifo_queue.conflict_fig_4_3}); the machine installs its
    head/tail restriction.  Validate unfamiliar bases with {!validate}
    first — creation does not re-run the (exponential) soundness
    check. *)

val try_invoke : t -> Runtime.Txn_rt.t -> A.inv -> (A.res, Runtime.Retry.failure) result
val invoke : t -> Runtime.Txn_rt.t -> A.inv -> A.res
val committed_states : t -> A.state list
val name : t -> string
val stats : t -> O.stats
val history : t -> Model.History.Make(A).t
val replay_check : ?online:bool -> t -> (unit, string) result
val register_introspection : t -> unit

val validate : depth:int -> (A.op -> A.op -> bool) -> (unit, string) result
(** Is the head/tail restriction of a base relation still a dependency
    relation?  [Error] carries the rendered counterexample. *)
