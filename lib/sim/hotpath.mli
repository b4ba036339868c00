(** Hot-path microbenchmark: no-conflict WAL-off transactions.

    The workload ROADMAP item 2 targets: [domains] domains each run
    [txns] transactions of one [Inc 1] against a counter — private per
    domain ([`Private], fully uncontended) or shared ([`Shared];
    [Inc]/[Inc] never conflicts under the hybrid relation, but
    concurrent CAS publishes may race, and a publish that loses
    repeatedly takes the object exclusively under its mutex).  Every
    row carries the {!Runtime.Lockstat} delta observed during the run,
    which is how the [--hotpath-only] bench gate proves the uncontended
    path is mutex-free.  With [force_slow] the same workload replays
    through the pre-rework mutex paths for a same-process speedup
    ratio.  The run self-checks: all [domains * txns] transactions must
    commit and the counter totals must agree. *)

type row = {
  h_label : string;
  h_domains : int;
  h_shape : [ `Private | `Shared ];
  h_committed : int;
  h_wall : float;
  h_throughput : float;
  h_us_per_txn : float;
  h_locks : Runtime.Lockstat.snapshot;
}

val pp_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> row -> unit

val run :
  ?txns:int ->
  ?shape:[ `Private | `Shared ] ->
  ?force_slow:bool ->
  label:string ->
  domains:int ->
  unit ->
  row

val sweep : ?txns:int -> domains:int list -> unit -> row list
