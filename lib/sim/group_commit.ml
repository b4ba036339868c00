type row = {
  g_label : string;
  g_domains : int;
  g_group_commit : bool;
  g_committed : int;
  g_fsyncs : int;
  g_wall : float;
  g_throughput : float;
  g_p50_us : float;
  g_p99_us : float;
}

let fsyncs_per_commit r =
  if r.g_committed = 0 then nan else float_of_int r.g_fsyncs /. float_of_int r.g_committed

let pp_header ppf () =
  Format.fprintf ppf "%-24s %7s %9s %7s %7s %10s %9s %9s@." "workload" "domains"
    "committed" "fsyncs" "f/txn" "txn/s" "p50(us)" "p99(us)"

let pp_row ppf r =
  Format.fprintf ppf "%-24s %7d %9d %7d %7.3f %10.0f %9.1f %9.1f@." r.g_label r.g_domains
    r.g_committed r.g_fsyncs (fsyncs_per_commit r) r.g_throughput r.g_p50_us r.g_p99_us

(* Nearest-rank-with-interpolation percentile over an unsorted sample. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    let idx = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = int_of_float (Float.ceil idx) in
    let frac = idx -. Float.floor idx in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

module O = Runtime.Atomic_obj.Make (Adt.Counter)

(* Contention-free durable committers: each domain runs [txns]
   transactions of a single [Inc 1] against one shared counter.  Inc/Inc
   never conflict under the hybrid relation, so every attempt commits
   and the commit path — timestamp draw, commit-record append, sync to
   the record's LSN — is the only serialization left.  With group commit
   off every committer pays its own fsync; with it on, concurrent
   committers share a leader's barrier, so fsyncs/commit drops below 1
   as soon as commits overlap. *)
let run ?(fsync = true) ?sync_sleep_us ?(txns = 200) ~label ~dir ~domains ~group_commit ()
    =
  let path = Filename.concat dir (label ^ ".wal") in
  let w = Wal.Log.create ~fsync ~group_commit ~compact_threshold:max_int path in
  (match sync_sleep_us with
  | Some us -> Wal.Log.set_sync_hook w (fun () -> Unix.sleepf (us *. 1e-6))
  | None -> ());
  let mgr = Runtime.Manager.create ~wal:w () in
  let o = O.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let latencies, wall =
    Driver.loop { domains; txns; think_us = 0. } (fun ~domain:_ ~seq:_ ->
        let a0 = Obs.Clock.now_ns () in
        Runtime.Manager.run mgr (fun txn -> ignore (O.invoke o txn (Adt.Counter.Inc 1)));
        Obs.Clock.ns_to_s (Obs.Clock.now_ns () - a0) *. 1e6)
  in
  let latencies = Array.concat (Array.to_list latencies) in
  let fsyncs = Wal.Log.fsyncs w in
  Wal.Log.close w;
  let stats = Runtime.Manager.stats mgr in
  let committed = stats.Runtime.Manager.committed in
  {
    g_label = label;
    g_domains = domains;
    g_group_commit = group_commit;
    g_committed = committed;
    g_fsyncs = fsyncs;
    g_wall = wall;
    g_throughput = float_of_int committed /. wall;
    g_p50_us = percentile latencies 0.50;
    g_p99_us = percentile latencies 0.99;
  }

let sweep ?fsync ?txns ~dir ~domains () =
  List.concat_map
    (fun d ->
      [
        run ?fsync ?txns
          ~label:(Printf.sprintf "serial-fsync-%dd" d)
          ~dir ~domains:d ~group_commit:false ();
        run ?fsync ?txns
          ~label:(Printf.sprintf "group-commit-%dd" d)
          ~dir ~domains:d ~group_commit:true ();
      ])
    domains
