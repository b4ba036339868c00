(** The shard set. *)

type t

val make :
  ?wal_dir:string ->
  ?prefix:string ->
  ?fsync:bool ->
  ?group_commit:bool ->
  ?compact_threshold:int ->
  ?ring_capacity:int ->
  count:int ->
  unit ->
  t
(** [count] fresh shards (see {!Shard.create}). *)

val count : t -> int
val shard : t -> int -> Shard.t

val iter : (Shard.t -> unit) -> t -> unit
val rings : t -> Obs.Trace.t array

val register_introspection : t -> unit
val close : t -> unit
