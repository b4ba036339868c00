(* The hot-path microbenchmark: how fast is a transaction that meets no
   conflict, no WAL, and no tracing?  This is the workload ROADMAP item
   2 targets — after the lock-free rework the whole path (priority
   registry, timestamp draw, lock machine, commit distribution) runs on
   atomics, and the Lockstat columns prove it by counting the mutex
   acquisitions that actually happened.

   Two shapes:
   - [`Private]: each domain increments its own counter.  Fully
     uncontended — no CAS ever fails, so a nonzero mutex count is a
     regression, which the `--hotpath-only` bench gate turns into a hard
     failure.
   - [`Shared]: all domains increment one counter.  Inc/Inc never
     conflicts under the hybrid relation, so every attempt still
     commits, but concurrent CAS publishes can race; a publish that
     loses repeatedly takes the object exclusively under its mutex, so
     this shape reports (not asserts) its lock counts.

   [force_slow] replays the same workload through the pre-rework mutex
   paths (see Lockstat) for a same-process before/after ratio. *)

type row = {
  h_label : string;
  h_domains : int;
  h_shape : [ `Private | `Shared ];
  h_committed : int;
  h_wall : float;
  h_throughput : float;
  h_us_per_txn : float;
  h_locks : Runtime.Lockstat.snapshot; (* mutex acquisitions during the run *)
}

let pp_header ppf () =
  Format.fprintf ppf "%-22s %7s %9s %10s %8s %9s %9s@." "workload" "domains" "committed"
    "txn/s" "us/txn" "obj-mtx" "mgr-mtx"

let pp_row ppf r =
  Format.fprintf ppf "%-22s %7d %9d %10.0f %8.2f %9d %9d@." r.h_label r.h_domains
    r.h_committed r.h_throughput r.h_us_per_txn r.h_locks.Runtime.Lockstat.s_obj
    r.h_locks.Runtime.Lockstat.s_mgr

module O = Runtime.Atomic_obj.Make (Adt.Counter)

let run ?(txns = 5000) ?(shape = `Private) ?(force_slow = false) ~label ~domains () =
  let mgr = Runtime.Manager.create () in
  let make_obj () = O.create ~conflict:Adt.Counter.conflict_hybrid () in
  let objs =
    match shape with
    | `Shared ->
      let o = make_obj () in
      Array.make domains o
    | `Private -> Array.init domains (fun _ -> make_obj ())
  in
  Runtime.Lockstat.set_force_slow force_slow;
  let before = Runtime.Lockstat.snapshot () in
  let _, wall =
    Driver.loop { domains; txns; think_us = 0. } (fun ~domain ~seq:_ ->
        Runtime.Manager.run mgr (fun txn ->
            ignore (O.invoke objs.(domain) txn (Adt.Counter.Inc 1))))
  in
  let after = Runtime.Lockstat.snapshot () in
  Runtime.Lockstat.set_force_slow false;
  let committed = (Runtime.Manager.stats mgr).Runtime.Manager.committed in
  (* The counters must agree with the protocol: every transaction
     committed, and the counter values sum to the commit count. *)
  let total =
    match shape with
    | `Shared -> List.hd (O.committed_states objs.(0))
    | `Private ->
      Array.fold_left (fun acc o -> acc + List.hd (O.committed_states o)) 0 objs
  in
  if committed <> domains * txns || total <> domains * txns then
    failwith
      (Printf.sprintf "Hotpath.run %s: committed %d, counter total %d, expected %d"
         label committed total (domains * txns));
  {
    h_label = label;
    h_domains = domains;
    h_shape = shape;
    h_committed = committed;
    h_wall = wall;
    h_throughput = float_of_int committed /. wall;
    h_us_per_txn = wall /. float_of_int committed *. 1e6;
    h_locks = Runtime.Lockstat.diff ~before ~after;
  }

let sweep ?txns ~domains () =
  List.concat_map
    (fun d ->
      [
        run ?txns ~shape:`Private ~label:(Printf.sprintf "private-%dd" d) ~domains:d ();
        run ?txns ~shape:`Shared ~label:(Printf.sprintf "shared-%dd" d) ~domains:d ();
      ])
    domains
