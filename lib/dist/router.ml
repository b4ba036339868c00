type t = { shards : Shard.t array }

let make ?wal_dir ?prefix ?fsync ?group_commit ?compact_threshold ?ring_capacity ~count () =
  if count < 1 then invalid_arg "Router.make: count must be positive";
  {
    shards =
      Array.init count (fun index ->
          Shard.create ?wal_dir ?prefix ?fsync ?group_commit ?compact_threshold
            ?ring_capacity ~index ~count ());
  }

let count t = Array.length t.shards
let shard t i = t.shards.(i)

let iter f t = Array.iter f t.shards
let rings t = Array.map Shard.ring t.shards
let register_introspection t = Array.iter Shard.register_introspection t.shards
let close t = Array.iter Shard.close t.shards
