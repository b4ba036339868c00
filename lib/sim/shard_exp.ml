(* EXP-SHARD: the sharded workload.

   One account per shard; each domain has a home shard and runs
   credit/debit transactions against it through the shard's own manager.
   A configurable fraction of transactions instead transfer between the
   home account and another shard's account through the cross-shard
   coordinator (presumed-abort 2PC).  At 0% cross-shard the shards share
   nothing at all — the scaling axis the single-manager baseline is
   measured against. *)

module Aobj = Runtime.Atomic_obj.Make (Adt.Account)
module Aprof = Conflict_profile.Make (Adt.Account)

let account_weights (i, r) =
  match (i, r) with
  | Adt.Account.Credit _, _ -> 4.
  | Adt.Account.Post _, _ -> 1.
  | Adt.Account.Debit _, Adt.Account.Ok -> 4.
  | Adt.Account.Debit _, Adt.Account.Overdraft -> 0.1

type setup = {
  router : Dist.Router.t;
  coord : Dist.Coordinator.t;
  dlog : Dist.Decision_log.t option;
  accounts : Aobj.t array; (* accounts.(i) lives on shard i *)
}

let make_setup ?wal_dir ?(prefix = "") ?(fsync = false) ?(group_commit = true)
    ?compact_threshold ?(ring_capacity = 1 lsl 16) ~shards () =
  let router =
    Dist.Router.make ?wal_dir ~prefix ~fsync ~group_commit ?compact_threshold
      ~ring_capacity ~count:shards ()
  in
  let dlog =
    Option.map
      (fun dir ->
        Dist.Decision_log.create ~fsync ~group_commit (Dist.Shard.decision_file ~prefix dir))
      wal_dir
  in
  let coord = Dist.Coordinator.create ?dlog router in
  let accounts =
    Array.init shards (fun i ->
        let sh = Dist.Router.shard router i in
        Aobj.create
          ~name:(Dist.Shard.obj_name sh "account")
          ~trace:(Dist.Shard.ring sh)
          ?wal:(Option.map (fun w -> (w, Adt.Account.codec)) (Dist.Shard.wal sh))
          ~conflict:Adt.Account.conflict_hybrid ~op_label:Adt.Account.op_label ())
  in
  (* Seed every account inside its shard's ring window, so replay sees
     the balance the debits draw on. *)
  Array.iteri
    (fun i acc ->
      Runtime.Manager.run
        (Dist.Shard.mgr (Dist.Router.shard router i))
        (fun txn -> ignore (Aobj.invoke acc txn (Adt.Account.Credit 1_000_000))))
    accounts;
  { router; coord; dlog; accounts }

let close_setup s =
  Option.iter Dist.Decision_log.close s.dlog;
  Dist.Router.close s.router

let rings s = Dist.Router.rings s.router
let outcome_fn s = Dist.Coordinator.outcome s.coord

(* One domain's transaction [seq]: a local credit/debit run on the home
   account, or — with probability [cross_pct] when there is more than
   one shard — a transfer from the home account to a partner shard's
   account through the coordinator. *)
let txn_body s ~think_us ~seed ~cross_pct ~domain ~seq =
  let shards = Array.length s.accounts in
  let home = domain mod shards in
  let h = Driver.pseudo ~seed domain seq 0 in
  let cross = shards > 1 && float_of_int (h mod 1000) < cross_pct *. 10. in
  if cross then begin
    let partner =
      (home + 1 + (Driver.pseudo ~seed domain seq 1 mod (shards - 1))) mod shards
    in
    let amount = 1 + (Driver.pseudo ~seed domain seq 2 mod 9) in
    Dist.Coordinator.run s.coord (fun ctx ->
        let bh = Dist.Coordinator.branch ctx (Dist.Router.shard s.router home) in
        let bp = Dist.Coordinator.branch ctx (Dist.Router.shard s.router partner) in
        ignore (Aobj.invoke s.accounts.(home) bh (Adt.Account.Debit amount));
        Driver.think think_us;
        ignore (Aobj.invoke s.accounts.(partner) bp (Adt.Account.Credit amount));
        Driver.think think_us)
  end
  else
    Runtime.Manager.run
      (Dist.Shard.mgr (Dist.Router.shard s.router home))
      (fun txn ->
        for k = 0 to 2 do
          let amount = 1 + (Driver.pseudo ~seed domain seq (3 + k) mod 9) in
          let op =
            if (domain + seq + k) mod 2 = 0 then Adt.Account.Credit amount
            else Adt.Account.Debit amount
          in
          ignore (Aobj.invoke s.accounts.(home) txn op);
          Driver.think think_us
        done)

let drive s (scale : Driver.scale) ~seed ~cross_pct =
  let scale = { scale with domains = max scale.domains (Array.length s.accounts) } in
  let _, wall =
    Driver.loop scale (txn_body s ~think_us:scale.think_us ~seed ~cross_pct)
  in
  (scale.domains * scale.txns, wall)

type outcome = {
  row : Experiments.row;
  o_shards : int;
  o_cross_pct : float;
  o_fsyncs : int; (* across every shard WAL and the decision log *)
  o_cross_commits : int;
  o_cross_aborts : int;
  o_ack_failures : int;
}

let run_one ?(scale = Driver.default_scale) ?(seed = 0) ?wal_dir ?prefix ?fsync
    ?group_commit ?ring_capacity ~shards ~cross_pct () =
  let s = make_setup ?wal_dir ?prefix ?fsync ?group_commit ?ring_capacity ~shards () in
  let committed, wall = drive s scale ~seed ~cross_pct in
  let mgr_stats i = Runtime.Manager.stats (Dist.Shard.mgr (Dist.Router.shard s.router i)) in
  let cstats = Dist.Coordinator.stats s.coord in
  let attempts = ref cstats.Dist.Coordinator.c_attempts in
  for i = 0 to shards - 1 do
    attempts := !attempts + (mgr_stats i).Runtime.Manager.started
  done;
  let conflicts = ref 0 and blocked = ref 0 in
  Array.iter
    (fun acc ->
      let st = Aobj.stats acc in
      conflicts := !conflicts + st.Aobj.conflicts;
      blocked := !blocked + st.Aobj.blocked)
    s.accounts;
  let windows = Array.map Obs.Trace.entries (rings s) in
  let stitched = Dist.Audit.stitch windows in
  (* Section 3 checkers per object (each shard's account against its own
     ring), then the cross-shard agreement checks over all windows. *)
  let atomic =
    let per_object =
      Array.to_seq s.accounts
      |> Seq.map (fun acc -> Aobj.replay_check acc)
      |> Seq.fold_left
           (fun acc r -> match (acc, r) with Ok (), r -> r | e, _ -> e)
           (Ok ())
    in
    match per_object with
    | Error _ as e -> e
    | Ok () -> Dist.Audit.check ~outcome:(outcome_fn s) windows
  in
  let fsyncs =
    let wal_fsyncs = ref 0 in
    Dist.Router.iter
      (fun sh -> Option.iter (fun w -> wal_fsyncs := !wal_fsyncs + Wal.Log.fsyncs w) (Dist.Shard.wal sh))
      s.router;
    Option.iter
      (fun d -> wal_fsyncs := !wal_fsyncs + Wal.Log.fsyncs (Dist.Decision_log.log d))
      s.dlog;
    !wal_fsyncs
  in
  let row =
    {
      Experiments.label =
        Printf.sprintf "shards=%d cross=%.0f%%" shards cross_pct;
      committed;
      attempts = !attempts;
      op_conflicts = !conflicts;
      op_blocked = !blocked;
      throughput = float_of_int committed /. wall;
      conflict_prob =
        Aprof.op_conflict_probability ~weights:account_weights
          Adt.Account.conflict_hybrid;
      atomic = Some atomic;
      attrib = Some (Obs.Attrib.of_entries stitched);
      waitfor = Some (Obs.Waitfor.analyze stitched);
      window = stitched;
    }
  in
  let outcome =
    {
      row;
      o_shards = shards;
      o_cross_pct = cross_pct;
      o_fsyncs = fsyncs;
      o_cross_commits = cstats.Dist.Coordinator.c_cross_commits;
      o_cross_aborts = cstats.Dist.Coordinator.c_aborts;
      o_ack_failures = cstats.Dist.Coordinator.c_ack_failures;
    }
  in
  close_setup s;
  outcome

let shard_counts upto =
  let rec go n acc = if n >= upto then List.rev (upto :: acc) else go (n * 2) (n :: acc) in
  if upto <= 1 then [ 1 ] else go 1 []

let exp_shard ?(scale = Driver.default_scale) ?(seed = 0) ?(shards = 4)
    ?(cross_pct = 10.) ?wal_dir ?fsync ?group_commit () =
  let variants =
    List.concat_map
      (fun n ->
        if n > 1 && cross_pct > 0. then [ (n, 0.); (n, cross_pct) ] else [ (n, 0.) ])
      (shard_counts shards)
  in
  let rows =
    List.map
      (fun (n, pct) ->
        let prefix = Printf.sprintf "n%d-c%.0f-" n pct in
        (run_one ~scale ~seed ?wal_dir ~prefix ?fsync ?group_commit ~shards:n
           ~cross_pct:pct ())
          .row)
      variants
  in
  {
    Experiments.id = "EXP-SHARD";
    title = "sharded managers vs one manager; cross-shard 2PC mix";
    params =
      Printf.sprintf "%d+ domains x %d txns, think %.0fus, seed %d, up to %d shards, %.0f%% cross"
        scale.Driver.domains scale.Driver.txns scale.Driver.think_us seed
        shards cross_pct;
    rows;
  }
