(* Long-running sharded workload for the introspection server.

   The single-manager serve loop ([Live]) audits by epoch rotation,
   because per-object replay needs a complete window.  The sharded loop
   audits differently: the cross-shard checks ([Dist.Audit]) are sound
   on partial windows — a wrapped-out entry can mask a violation but
   never invent one — so the sampler can re-verify the live per-shard
   rings continuously, with no rotation machinery.  What is being
   watched is exactly the coordinator's obligations: every shard
   completes a global transaction the same way, at the same decided
   timestamp, matching the decision log, and no decided timestamp
   contradicts an observed order. *)

module Aobj = Shard_exp.Aobj

type config = {
  shards : int;
  domains : int;
  think_us : float;
  seed : int;
  cross_pct : float;
  ring_capacity : int;
}

let default_config =
  { shards = 2; domains = 4; think_us = 100.; seed = 0; cross_pct = 10.; ring_capacity = 1 lsl 16 }

type t = {
  config : config;
  setup : Shard_exp.setup;
  injected : int Atomic.t; (* forged commits emitted *)
  workers : Driver.workers;
}

let windows t = Array.map Obs.Trace.entries (Shard_exp.rings t.setup)
let stitched t = Dist.Audit.stitch (windows t)

let register_audits t =
  Obs.Sampler.register_audit ~name:"dist/atomicity" (fun () ->
      Dist.Audit.check ~outcome:(Shard_exp.outcome_fn t.setup) (windows t));
  Obs.Sampler.register_audit ~name:"waitfor/dist" (fun () ->
      Experiments.waitfor_verdict (Obs.Waitfor.analyze (stitched t)))

let start ?wal_dir ?(fsync = true) ?(group_commit = true) config =
  let config = { config with shards = max 1 config.shards; domains = max 1 config.domains } in
  let setup =
    Shard_exp.make_setup ?wal_dir ~fsync:(fsync && wal_dir <> None) ~group_commit
      ~ring_capacity:config.ring_capacity ~shards:config.shards ()
  in
  Dist.Router.register_introspection setup.Shard_exp.router;
  let workers =
    Driver.start ~domains:config.domains
      (Shard_exp.txn_body setup ~think_us:config.think_us ~seed:config.seed
         ~cross_pct:config.cross_pct)
  in
  let t = { config; setup; injected = Atomic.make 0; workers } in
  register_audits t;
  t

(* The negative control: run a cross-shard transfer that requests its
   own abort after invoking on two shards — the coordinator records the
   abort verdict and every shard's ring records the branch aborting —
   then forge a Commit entry for that global id into shard 0's ring, at
   a far-future timestamp.  The workload is untouched; only the trace
   lies.  The audit must flag it twice over: a shard committing what
   another aborted, and (when a decision log is attached) a shard
   committing a decided-abort transaction. *)
let inject_violation t =
  if t.config.shards < 2 then false
  else begin
    let gid = ref (-1) in
    let s = t.setup in
    match
      Dist.Coordinator.run_once s.Shard_exp.coord (fun ctx ->
          gid := Dist.Coordinator.id ctx;
          let b0 = Dist.Coordinator.branch ctx (Dist.Router.shard s.Shard_exp.router 0) in
          let b1 = Dist.Coordinator.branch ctx (Dist.Router.shard s.Shard_exp.router 1) in
          ignore (Aobj.invoke s.Shard_exp.accounts.(0) b0 (Adt.Account.Credit 1));
          ignore (Aobj.invoke s.Shard_exp.accounts.(1) b1 (Adt.Account.Debit 1));
          raise (Runtime.Txn_rt.Abort_requested "injected violation"))
    with
    | Ok _ -> false
    | Error _ ->
      let ring = Dist.Shard.ring (Dist.Router.shard s.Shard_exp.router 0) in
      Obs.Trace.emit ring
        ~obj:(Aobj.key s.Shard_exp.accounts.(0))
        ~txn:!gid (Obs.Trace.Commit 1_073_741_823);
      Atomic.incr t.injected;
      true
  end

type stats = {
  s_committed : int;  (** across every shard manager *)
  s_aborted : int;
  s_cross_commits : int;
  s_cross_aborts : int;
  s_injected : int;
}

let stats t =
  let committed = ref 0 and aborted = ref 0 in
  Dist.Router.iter
    (fun sh ->
      let st = Runtime.Manager.stats (Dist.Shard.mgr sh) in
      committed := !committed + st.Runtime.Manager.committed;
      aborted := !aborted + st.Runtime.Manager.aborted)
    t.setup.Shard_exp.router;
  let c = Dist.Coordinator.stats t.setup.Shard_exp.coord in
  {
    s_committed = !committed + c.Dist.Coordinator.c_cross_commits;
    s_aborted = !aborted;
    s_cross_commits = c.Dist.Coordinator.c_cross_commits;
    s_cross_aborts = c.Dist.Coordinator.c_aborts;
    s_injected = Atomic.get t.injected;
  }

let setup t = t.setup
let shards t = t.config.shards

let stop t = Driver.stop t.workers

let close t =
  stop t;
  Shard_exp.close_setup t.setup
