(* EXP-PROFILE: the span-profiling workload.

   The EXP-SHARD mix (local credit/debit plus cross-shard transfers)
   with the flight recorder armed: every domain's span marks stream
   into flight.bin while an online Profile aggregator rides the flusher
   — the same pipeline the [profile] subcommand, the [/slo] endpoint
   and CI's profile-smoke job consume. *)

type result = {
  p_agg : Obs.Profile.t;  (* online aggregator, fed by the flusher *)
  p_wall : float;
  p_committed : int;  (* target transaction count, all committed *)
  p_cross_commits : int;
  p_emitted : int;
  p_lost : int;
}

let run ?(scale = Driver.default_scale) ?(seed = 0) ?wal_dir ?(fsync = false)
    ?(group_commit = true) ?(detail = true) ?(shards = 3) ?(cross_pct = 20.) ~path () =
  let s = Shard_exp.make_setup ?wal_dir ~fsync ~group_commit ~shards () in
  let agg = Obs.Profile.create () in
  let flight = Obs.Flight.start ~path ~observer:(Obs.Profile.feed agg) () in
  (* Level 2 gives the per-ADT-op rows; the always-on deployment tier
     is level 1, which the flight-overhead bench gates. *)
  Obs.Flight.set_level (if detail then 2 else 1);
  let committed, wall = Shard_exp.drive s scale ~seed ~cross_pct in
  (* Final drain happens inside [stop]; after it the aggregator has
     seen every surviving record and the file carries the label
     metadata chunk for offline decoding. *)
  Obs.Flight.stop flight;
  Obs.Flight.set_level 0;
  let cstats = Dist.Coordinator.stats s.coord in
  Shard_exp.close_setup s;
  {
    p_agg = agg;
    p_wall = wall;
    p_committed = committed;
    p_cross_commits = cstats.Dist.Coordinator.c_cross_commits;
    p_emitted = Obs.Flight.emitted ();
    p_lost = Obs.Flight.lost ();
  }

(* Offline leg of the same pipeline: decode a flight file and rebuild
   the report in a fresh aggregator resolving labels through the file's
   own metadata chunk. *)
let decode_file path =
  let records, meta, tail = Obs.Flight.read_file path in
  let agg = Obs.Profile.create ~lookup:(Obs.Profile.meta_lookup meta) () in
  Obs.Profile.feed_all agg records;
  (agg, records, meta, tail)
