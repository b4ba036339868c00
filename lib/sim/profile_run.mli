(** EXP-PROFILE: the EXP-SHARD workload mix under the flight recorder.

    Runs local credit/debit and cross-shard transfer transactions with
    {!Obs.Flight} recording to a file and an online {!Obs.Profile}
    aggregator attached to the flusher — the full emit → flush →
    aggregate pipeline.  {!decode_file} is the offline leg: reparse the
    file and rebuild the report from its own metadata, as the
    [profile] subcommand and CI do. *)

type result = {
  p_agg : Obs.Profile.t;
  p_wall : float;
  p_committed : int;
  p_cross_commits : int;
  p_emitted : int;
  p_lost : int;
}

val run :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?wal_dir:string ->
  ?fsync:bool ->
  ?group_commit:bool ->
  ?detail:bool ->
  ?shards:int ->
  ?cross_pct:float ->
  path:string ->
  unit ->
  result
(** Run the workload with the recorder writing to [path].  [detail]
    (default true) arms recording level 2, adding per-ADT-op records;
    [shards] defaults to 3, [cross_pct] to 20%.  With [wal_dir] the
    shards run durably, exercising the append/sync-wait span marks.
    The recorder is stopped (final drain + metadata chunk) and disarmed
    before returning. *)

val decode_file :
  string -> Obs.Profile.t * Obs.Flight.record list * Obs.Flight.meta * Obs.Flight.tail
(** Parse a flight file and feed every record to a fresh aggregator
    whose labels resolve through the file's metadata chunk. *)
