(** Key-partitioned Directory — the canonical positive partition.

    One cell per hashed key: {!Adt.Directory.cell_of_inv} is total (every
    operation addresses exactly one key) and
    {!Adt.Directory.dependency_hybrid} already relates same-key
    operations only, so the cell restriction drops no pairs and remains
    a dependency relation verbatim ({!is_sound} asserts it).  What
    changes is the {e mechanism}: independent keys, which the
    whole-object machine already never made wait on each other, now stop
    sharing a lock machine and a mutex entirely — and a lock manager
    blind to keys (see {!Adt.Directory.conflict_whole_object}) is beaten
    by construction, which the key-partitioned experiment quantifies via
    fired-conflict mass. *)

module A = Adt.Directory
module C : module type of Cells.Make (Adt.Directory)
module P : module type of Spec.Partition.Make (Adt.Directory)
module O = C.O

type t

val create :
  ?name:string ->
  ?record:bool ->
  ?trace:Obs.Trace.t ->
  ?wal:Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t ->
  ?conflict:(A.op -> A.op -> bool) ->
  cells:int ->
  unit ->
  t
(** [conflict] defaults to {!Adt.Directory.conflict_hybrid} and is
    installed per cell (already same-key-only, i.e. its own cell
    restriction). *)

val cell_of_key : t -> int -> int
(** The cell index a directory key hashes to. *)

val try_invoke : t -> Runtime.Txn_rt.t -> A.inv -> (A.res, Runtime.Retry.failure) result
val invoke : t -> Runtime.Txn_rt.t -> A.inv -> A.res

val committed_keys : t -> int list
(** The logical directory contents: sorted union of every cell's
    committed state. *)

val name : t -> string
val cells : t -> C.t
val stats : t -> O.stats
val replay_check : ?online:bool -> t -> (unit, string) result
val register_introspection : t -> unit

val is_sound : depth:int -> bool
(** The partition's offline certificate:
    [Spec.Partition.Make(Directory)] restricted invalidated-by is still
    a dependency relation. *)
