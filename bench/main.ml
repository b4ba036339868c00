(* Benchmark harness: one Bechamel test (or test group) per paper figure.

   These are single-threaded protocol-cost microbenchmarks: each measures
   committed transactions pushed through the compacted LOCK machine of
   the figure's data type, under the figure's conflict relation and the
   baselines.  (They quantify the protocol's overhead; the *concurrency*
   measurements — throughput under real multicore contention, where the
   relations actually differ — are produced by `dune exec bin/main.exe --
   experiments`, since wall-clock contention experiments are not a
   microbenchmark shape.)

   Groups:
   - fig-4-1  File ops under hybrid / commutativity / RW locking
   - fig-4-2  Queue enq+deq transactions under the Figure 4-2 relation
   - fig-4-3  the same workload under the Figure 4-3 relation and RW
   - fig-4-4  SemiQueue ins+rem transactions
   - fig-4-5  Account transactions under the hybrid and RW relations
   - fig-7-1  Account transactions under commutativity-based conflicts
   - derivation  cost of deriving each figure's table from its spec
   - compaction  Section 6 ablation: LOCK with vs without compaction *)

open Bechamel
open Toolkit

(* Drive one ADT's compacted machine single-threadedly: the returned
   closure executes the given transactions (each a list of invocations,
   responses chosen by the machine) and commits each with the next
   timestamp.  State persists across benchmark iterations; with no
   concurrent transactions the horizon advances at every commit, so
   compaction keeps the machine size constant and the measurement
   stationary. *)
module Make_driver (A : Spec.Adt_sig.S) = struct
  module C = Hybrid.Compacted.Make (A)

  (* [label] names the per-figure metrics counters
     ([bench.<label>.txns] / [.ops]) that count the work each figure's
     closure pushed through the machine.  The counter calls stay on the
     fast path unconditionally; {!Obs.Control} decides whether they
     count — the on/off delta is what the obs-overhead group below
     measures. *)
  let make ?(label = A.name) ~conflict ~txns () =
    let m_txns = Obs.Metrics.counter (Printf.sprintf "bench.%s.txns" label) in
    let m_ops = Obs.Metrics.counter (Printf.sprintf "bench.%s.ops" label) in
    let machine = ref (C.create ~conflict) in
    let clock = ref 0 in
    let txn_ids = ref 0 in
    let one invs =
      incr txn_ids;
      let q = Model.Txn.make !txn_ids in
      List.iter
        (fun i ->
          (match C.step !machine (C.H.Invoke (q, i)) with
          | Ok m -> machine := m
          | Error _ -> assert false);
          match C.choose_response !machine q with
          | Ok (_, m) -> machine := m
          | Error _ -> assert false)
        invs;
      incr clock;
      (match C.step !machine (C.H.Commit (q, !clock)) with
      | Ok m -> machine := m
      | Error _ -> assert false);
      Obs.Metrics.incr m_txns;
      Obs.Metrics.add m_ops (List.length invs)
    in
    fun () -> List.iter one txns
end

module File_driver = Make_driver (Adt.File_adt)
module Queue_driver = Make_driver (Adt.Fifo_queue)
module Semi_driver = Make_driver (Adt.Semiqueue)
module Acct_driver = Make_driver (Adt.Account)

let test_fig_4_1 =
  let txn conflict =
    File_driver.make ~label:"fig-4-1" ~conflict ~txns:[ [ Adt.File_adt.Write 1; Adt.File_adt.Read ] ] ()
  in
  Test.make_grouped ~name:"fig-4-1-file"
    [
      Test.make ~name:"hybrid" (Staged.stage (txn Adt.File_adt.conflict_hybrid));
      Test.make ~name:"commutativity"
        (Staged.stage (txn Adt.File_adt.conflict_commutativity));
      Test.make ~name:"rw-locking" (Staged.stage (txn Adt.File_adt.conflict_rw));
    ]

(* Queue benchmarks alternate an enq-enq and a deq-deq transaction so the
   committed queue stays bounded. *)
let queue_txns =
  [ [ Adt.Fifo_queue.Enq 1; Adt.Fifo_queue.Enq 2 ]; [ Adt.Fifo_queue.Deq; Adt.Fifo_queue.Deq ] ]

let test_fig_4_2 =
  Test.make ~name:"fig-4-2-queue/hybrid"
    (Staged.stage
       (Queue_driver.make ~label:"fig-4-2" ~conflict:Adt.Fifo_queue.conflict_hybrid
          ~txns:queue_txns ()))

let test_fig_4_3 =
  Test.make_grouped ~name:"fig-4-3-queue"
    [
      Test.make ~name:"fig-4-3"
        (Staged.stage
           (Queue_driver.make ~label:"fig-4-3" ~conflict:Adt.Fifo_queue.conflict_fig_4_3
              ~txns:queue_txns ()));
      Test.make ~name:"rw-locking"
        (Staged.stage
           (Queue_driver.make ~label:"fig-4-3" ~conflict:Adt.Fifo_queue.conflict_rw
              ~txns:queue_txns ()));
    ]

let test_fig_4_4 =
  Test.make ~name:"fig-4-4-semiqueue/hybrid"
    (Staged.stage
       (Semi_driver.make ~label:"fig-4-4" ~conflict:Adt.Semiqueue.conflict_hybrid
          ~txns:
            [ [ Adt.Semiqueue.Ins 1; Adt.Semiqueue.Ins 2 ]; [ Adt.Semiqueue.Rem; Adt.Semiqueue.Rem ] ]
          ()))

let account_invs = [ Adt.Account.Credit 10; Adt.Account.Debit 5; Adt.Account.Post 1 ]

let test_fig_4_5 =
  let generic conflict = Acct_driver.make ~label:"fig-4-5" ~conflict ~txns:[ account_invs ] () in
  Test.make_grouped ~name:"fig-4-5-account"
    [
      Test.make ~name:"generic-hybrid"
        (Staged.stage (generic Adt.Account.conflict_hybrid));
      Test.make ~name:"rw-locking" (Staged.stage (generic Adt.Account.conflict_rw));
    ]

let test_fig_7_1 =
  Test.make ~name:"fig-7-1-account/commutativity"
    (Staged.stage
       (Acct_driver.make ~label:"fig-7-1" ~conflict:Adt.Account.conflict_commutativity
          ~txns:[ account_invs ] ()))

(* Deriving each figure's table from the serial specification (depth 2
   keeps the per-iteration cost benchmarkable; correctness tests use
   depth 3). *)
let test_derivation =
  let module FQ = Spec.Dependency.Make (Adt.Fifo_queue) in
  let module FS = Spec.Dependency.Make (Adt.Semiqueue) in
  let module FF = Spec.Dependency.Make (Adt.File_adt) in
  let module CA = Spec.Commutativity.Make (Adt.Account) in
  Test.make_grouped ~name:"derivation"
    [
      Test.make ~name:"fig-4-1-file"
        (Staged.stage (fun () -> ignore (FF.invalidated_by ~depth:2)));
      Test.make ~name:"fig-4-2-queue"
        (Staged.stage (fun () -> ignore (FQ.invalidated_by ~depth:2)));
      Test.make ~name:"fig-4-4-semiqueue"
        (Staged.stage (fun () -> ignore (FS.invalidated_by ~depth:2)));
      Test.make ~name:"fig-7-1-account-commut"
        (Staged.stage (fun () -> ignore (CA.failure_to_commute ~depth:2)));
    ]

(* Section 6 ablation: the same 60-transaction account run through the
   formal machine with intentions kept forever vs the compacted one. *)
let test_compaction =
  let module L = Hybrid.Lock_machine.Make (Adt.Account) in
  let run_full () =
    let machine = ref (L.create ~conflict:Adt.Account.conflict_hybrid) in
    for ts = 1 to 60 do
      let q = Model.Txn.make ts in
      List.iter
        (fun i ->
          (match L.step !machine (L.H.Invoke (q, i)) with
          | Ok m -> machine := m
          | Error _ -> assert false);
          match L.available_responses !machine q with
          | r :: _ -> (
            match L.step !machine (L.H.Respond (q, r)) with
            | Ok m -> machine := m
            | Error _ -> assert false)
          | [] -> assert false)
        account_invs;
      match L.step !machine (L.H.Commit (q, ts)) with
      | Ok m -> machine := m
      | Error _ -> assert false
    done
  in
  let run_compacted =
    (* A fresh compacted driver per iteration for a fair comparison. *)
    fun () -> (Acct_driver.make ~label:"compaction" ~conflict:Adt.Account.conflict_hybrid
                 ~txns:(List.init 60 (fun _ -> account_invs)) ()) ()
  in
  Test.make_grouped ~name:"compaction-60txn"
    [
      Test.make ~name:"intentions-kept-forever" (Staged.stage run_full);
      Test.make ~name:"horizon-compacted" (Staged.stage run_compacted);
    ]

(* The deterministic simulator itself: cost of simulating a small
   enqueue workload under each relation. *)
let test_det_sim =
  let module DQ = Sim.Det_sim.Make (Adt.Fifo_queue) in
  let scripts =
    Array.init 2 (fun w ->
        List.init 5 (fun k -> List.init 3 (fun j -> Adt.Fifo_queue.Enq (1 + ((w + k + j) mod 2)))))
  in
  let sim conflict () = ignore (DQ.run ~conflict scripts) in
  Test.make_grouped ~name:"det-sim-30op"
    [
      Test.make ~name:"hybrid" (Staged.stage (sim Adt.Fifo_queue.conflict_hybrid));
      Test.make ~name:"rw-locking" (Staged.stage (sim Adt.Fifo_queue.conflict_rw));
    ]

(* Snapshot reads: a pinned lock-free read against a live account. *)
let test_snapshot =
  let module AObj = Runtime.Atomic_obj.Make (Adt.Account) in
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:Adt.Account.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      ignore (AObj.invoke acc txn (Adt.Account.Credit 1000)));
  let sources = [ AObj.snapshot_source acc ] in
  let read_roundtrip () =
    ignore
      (Runtime.Snapshot.read mgr ~sources (fun ~at ->
           AObj.read_at acc ~at (Adt.Account.Debit 1)))
  in
  Test.make_grouped ~name:"snapshot"
    [ Test.make ~name:"read-only-roundtrip" (Staged.stage read_roundtrip) ]

(* Observability cost: the fig-4-2 workload through an instrumented
   driver with the metrics/trace switch on vs off (off = every registry
   call is a no-op behind one atomic read — the baseline the tentpole's
   <5% overhead budget is measured against).  Each closure sets the
   switch itself because Bechamel interleaves its own calibration runs;
   the groups above run before this one, under the default (on). *)
let test_obs_overhead =
  let on_driver =
    Queue_driver.make ~label:"obs-overhead" ~conflict:Adt.Fifo_queue.conflict_hybrid
      ~txns:queue_txns ()
  in
  let off_driver =
    Queue_driver.make ~label:"obs-overhead" ~conflict:Adt.Fifo_queue.conflict_hybrid
      ~txns:queue_txns ()
  in
  Test.make_grouped ~name:"obs-overhead-fig-4-2"
    [
      Test.make ~name:"metrics-on"
        (Staged.stage (fun () ->
             Obs.Control.set_enabled true;
             on_driver ()));
      Test.make ~name:"metrics-off"
        (Staged.stage (fun () ->
             Obs.Control.set_enabled false;
             off_driver ()));
    ]

(* Live-exposition cost, both sides of the introspection server:

   - the *hot path*: the per-commit instrumentation a serve process
     pays on every transaction — one stored-gauge incr/decr pair, one
     counter add, one histogram observation — with the switch on vs off
     (gauges are never gated, so "off" still pays the pair; that is the
     floor the 5% obs budget in EXPERIMENTS.md is measured against);
   - the *scrape path*: rendering the full Prometheus exposition and a
     ["locks"] channel snapshot against a populated registry (a live
     introspected object + manager, plus every instrument the groups
     above registered).  Scrapes run on the server thread, not the
     workload's, so this is latency a poll sees, not workload
     overhead. *)
let test_live_exposition =
  let module QObj = Runtime.Atomic_obj.Make (Adt.Fifo_queue) in
  let mgr = Runtime.Manager.create () in
  let q =
    QObj.create ~name:"bench/queue" ~conflict:Adt.Fifo_queue.conflict_hybrid
      ~op_label:Adt.Fifo_queue.op_label ()
  in
  QObj.register_introspection q;
  Runtime.Manager.register_introspection ~name:"bench/manager" mgr;
  Runtime.Manager.run mgr (fun txn ->
      ignore (QObj.invoke q txn (Adt.Fifo_queue.Enq 1)));
  let g = Obs.Gauge.make "bench_live_inflight" in
  let c = Obs.Metrics.counter "bench.live.commits" in
  let h = Obs.Metrics.histogram "bench.live.latency" in
  let hot_path () =
    Obs.Gauge.incr g;
    Obs.Metrics.incr c;
    Obs.Metrics.observe h 1e-5;
    Obs.Gauge.decr g
  in
  Test.make_grouped ~name:"live-exposition"
    [
      Test.make ~name:"registry-update-on"
        (Staged.stage (fun () ->
             Obs.Control.set_enabled true;
             hot_path ()));
      Test.make ~name:"registry-update-off"
        (Staged.stage (fun () ->
             Obs.Control.set_enabled false;
             hot_path ()));
      Test.make ~name:"metrics-render"
        (Staged.stage (fun () ->
             Obs.Control.set_enabled true;
             ignore (Obs.Expose.render ())));
      Test.make ~name:"locks-snapshot"
        (Staged.stage (fun () -> ignore (Obs.Registry.snapshot "locks")));
    ]

(* Flight-recorder cost, microbenchmark shape: the same committed
   transaction through the full runtime with the recorder off, at the
   span-marks tier (level 1 — two 32-byte ring stores per commit, what
   an always-on deployment pays), and at the per-op detail tier
   (level 2 — adds a record and two clock reads per ADT operation).
   Every closure sets its own level because Bechamel interleaves
   calibration runs; the enforced < 5% budget on the marks tier is the
   --flight-overhead-only section below, which also runs the flusher. *)
let test_flight_overhead =
  let module CObj = Runtime.Atomic_obj.Make (Adt.Counter) in
  let driver () =
    let mgr = Runtime.Manager.create () in
    let c = CObj.create ~conflict:Adt.Counter.conflict_hybrid () in
    fun () ->
      Runtime.Manager.run mgr (fun txn -> ignore (CObj.invoke c txn (Adt.Counter.Inc 1)))
  in
  (* The off closure pays the same two set_level stores, so the three
     rows differ only in what the recorder does. *)
  let at level d () =
    Obs.Control.set_enabled true;
    Obs.Flight.set_level level;
    d ();
    Obs.Flight.set_level 0
  in
  let off = driver () and marks = driver () and detail = driver () in
  Test.make_grouped ~name:"flight-overhead"
    [
      Test.make ~name:"recorder-off" (Staged.stage (at 0 off));
      Test.make ~name:"span-marks" (Staged.stage (at 1 marks));
      Test.make ~name:"per-op-detail" (Staged.stage (at 2 detail));
    ]

(* Durability cost: one committed increment transaction through the
   full runtime (manager + atomic object) with no log, with a log whose
   fsync is disabled (append cost only), and with a fully synced log
   (the write-ahead commit rule's real price: one fsync per commit).
   State persists across iterations; sequential commits keep the
   horizon advancing, so the log keeps compacting and the measurement
   stays stationary. *)
let test_wal_overhead =
  let module CObj = Runtime.Atomic_obj.Make (Adt.Counter) in
  let bench_path tag =
    let f = Filename.temp_file ("hybrid-cc-bench-" ^ tag) ".wal" in
    at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
    f
  in
  let txn_of mgr c () =
    Runtime.Manager.run mgr (fun txn -> ignore (CObj.invoke c txn (Adt.Counter.Inc 1)))
  in
  let plain =
    let mgr = Runtime.Manager.create () in
    let c = CObj.create ~conflict:Adt.Counter.conflict_hybrid () in
    txn_of mgr c
  in
  let durable ?group_commit ~fsync tag =
    let w = Wal.Log.create ?group_commit ~fsync (bench_path tag) in
    let mgr = Runtime.Manager.create ~wal:w () in
    let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
    txn_of mgr c
  in
  (* With one committer the two sync modes degenerate to the same one
     fsync per commit — the interesting (multi-committer) comparison is
     the group-commit section below, not a microbenchmark shape. *)
  Test.make_grouped ~name:"wal-overhead"
    [
      Test.make ~name:"wal-off" (Staged.stage plain);
      Test.make ~name:"wal-nofsync" (Staged.stage (durable ~fsync:false "nofsync"));
      Test.make ~name:"wal-fsync"
        (Staged.stage (durable ~group_commit:true ~fsync:true "fsync"));
      Test.make ~name:"wal-fsync-serial"
        (Staged.stage (durable ~group_commit:false ~fsync:true "fsync-serial"));
    ]

(* Cell-locking cost: the same 4-key directory transaction through the
   full runtime against a whole-object machine and a partitioned one.
   Single-threaded, so this prices the partition plumbing itself — the
   cell routing, the per-cell mutexes and lock machines, the fibonacci
   key hash — not the concurrency it buys (that is EXP-DIRECTORY's
   job).  The keys are fixed and distinct, so the partitioned run
   touches 4 separate cells per transaction (the worst case for the
   plumbing: 4 machines' views instead of 1). *)
let test_partition_overhead =
  let keys = [ 0; 1; 2; 3 ] in
  let whole =
    let mgr = Runtime.Manager.create () in
    let module DObj = Runtime.Atomic_obj.Make (Adt.Directory) in
    let d = DObj.create ~conflict:Adt.Directory.conflict_hybrid () in
    fun () ->
      Runtime.Manager.run mgr (fun txn ->
          List.iter (fun k -> ignore (DObj.invoke d txn (Adt.Directory.Insert k))) keys;
          List.iter (fun k -> ignore (DObj.invoke d txn (Adt.Directory.Remove k))) keys)
  in
  let celled =
    let mgr = Runtime.Manager.create () in
    let d = Part.Pdir.create ~cells:8 () in
    fun () ->
      Runtime.Manager.run mgr (fun txn ->
          List.iter (fun k -> ignore (Part.Pdir.invoke d txn (Adt.Directory.Insert k))) keys;
          List.iter (fun k -> ignore (Part.Pdir.invoke d txn (Adt.Directory.Remove k))) keys)
  in
  Test.make_grouped ~name:"partition-overhead-directory"
    [
      Test.make ~name:"whole-object" (Staged.stage whole);
      Test.make ~name:"cell-locked-8" (Staged.stage celled);
    ]

(* Offline trace-analysis cost: folding a captured window into the
   conflict matrix / waits-for report and serializing it.  The window is
   synthetic (a contended retry/grant pattern) so the fold cost is
   measured on a stable input, independent of scheduler noise. *)
let test_trace_analysis =
  let tr = Obs.Trace.create ~capacity:(1 lsl 12) () in
  let refusal holder = Obs.Trace.Lock_refused { holder; requested = 0; held = 1 } in
  for q = 1 to 256 do
    let emit ev = Obs.Trace.emit tr ~obj:(q mod 8) ~txn:q ev in
    emit (Obs.Trace.Invoke 0);
    emit (refusal (Some (q - 1)));
    emit Obs.Trace.Retry;
    emit (Obs.Trace.Respond 0);
    emit (Obs.Trace.Commit q)
  done;
  let window = Obs.Trace.entries tr in
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Test.make_grouped ~name:"trace-analysis"
    [
      Test.make ~name:"attrib-fold"
        (Staged.stage (fun () -> ignore (Obs.Attrib.of_entries window)));
      Test.make ~name:"waitfor-analyze"
        (Staged.stage (fun () -> ignore (Obs.Waitfor.analyze window)));
      Test.make ~name:"chrome-export"
        (Staged.stage (fun () -> Obs.Export.chrome_trace null_ppf window));
    ]

let all_tests =
  Test.make_grouped ~name:"hybrid-cc"
    [
      test_fig_4_1;
      test_fig_4_2;
      test_fig_4_3;
      test_fig_4_4;
      test_fig_4_5;
      test_fig_7_1;
      test_derivation;
      test_compaction;
      test_det_sim;
      test_snapshot;
      test_obs_overhead;
      test_live_exposition;
      test_flight_overhead;
      test_wal_overhead;
      test_partition_overhead;
      test_trace_analysis;
    ]

(* EXP-GROUP-COMMIT: durable commit throughput and fsync amortization
   vs committer count (not a Bechamel shape — it needs real domains).
   The measured sweep uses the machine's actual fsync; the assertion row
   pins the barrier cost at 200us with a sync hook, so "concurrent
   committers share a barrier" is checked deterministically rather than
   on whatever disk CI happens to run on. *)
let run_group_commit () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-bench-gc-%d" (Unix.getpid ()))
  in
  Sim.Driver.ensure_dir dir;
  print_endline "";
  print_endline "group commit (durable Inc transactions on one counter, real fsync):";
  let rows = Sim.Group_commit.sweep ~txns:200 ~dir ~domains:[ 1; 4 ] () in
  Format.printf "%a" Sim.Group_commit.pp_header ();
  List.iter (fun r -> Format.printf "%a" Sim.Group_commit.pp_row r) rows;
  let assert_row =
    Sim.Group_commit.run ~fsync:false ~sync_sleep_us:200. ~txns:100
      ~label:"batched-assert-4d" ~dir ~domains:4 ~group_commit:true ()
  in
  Format.printf "%a" Sim.Group_commit.pp_row assert_row;
  let fpc = Sim.Group_commit.fsyncs_per_commit assert_row in
  if fpc >= 1.0 then begin
    Format.eprintf
      "FAIL: 4 concurrent committers against a 200us barrier ran %.3f syncs/commit — \
       group commit is not batching@."
      fpc;
    exit 1
  end;
  Format.printf "batched sync assertion: %.3f fsyncs/commit at 4 committers (< 1): OK@."
    fpc

(* EXP-SHARD scaling sweep: durable sharded throughput vs shard count
   at 0% and 10% cross-shard traffic (not a Bechamel shape either — it
   needs real domains and real WALs).  Reports the fsyncs/commit
   accounting: per-shard group commit amortizes the local durability
   point, while every cross-shard commit additionally pays the
   coordinator's forced decision and the participants' forced prepares,
   so fsyncs/commit is the honest price tag of the 2PC mix.  The
   cross-shard audit verdict of every cell is asserted — a sharded run
   whose stitched trace violates hybrid atomicity fails the bench. *)
let run_shard_scaling () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-bench-shard-%d" (Unix.getpid ()))
  in
  Sim.Driver.ensure_dir dir;
  print_endline "";
  print_endline
    "shard scaling (durable account transfers, per-shard WAL + decision log, real fsync):";
  let scale = { Sim.Driver.domains = 4; txns = 120; think_us = 0. } in
  Printf.printf "  %-6s %7s %9s %12s %8s %9s %13s  %s\n" "shards" "cross" "committed"
    "txn/s" "fsyncs" "fs/commit" "cross(c/a)" "audit";
  List.iter
    (fun (shards, cross_pct) ->
      let o =
        Sim.Shard_exp.run_one ~scale ~wal_dir:dir
          ~prefix:(Printf.sprintf "sc-n%d-c%.0f-" shards cross_pct)
          ~fsync:true ~group_commit:true ~shards ~cross_pct ()
      in
      let r = o.Sim.Shard_exp.row in
      let fpc =
        float_of_int o.Sim.Shard_exp.o_fsyncs
        /. float_of_int (max 1 r.Sim.Experiments.committed)
      in
      let audit =
        match r.Sim.Experiments.atomic with
        | Some (Ok ()) -> "ok"
        | Some (Error e) -> "FAIL: " ^ e
        | None -> "-"
      in
      Printf.printf "  %-6d %6.0f%% %9d %12.0f %8d %9.3f %9d/%-3d  %s\n" shards cross_pct
        r.Sim.Experiments.committed r.Sim.Experiments.throughput o.Sim.Shard_exp.o_fsyncs
        fpc o.Sim.Shard_exp.o_cross_commits o.Sim.Shard_exp.o_cross_aborts audit;
      if (match r.Sim.Experiments.atomic with Some (Ok ()) -> false | _ -> true) then begin
        Format.eprintf "FAIL: shard-scaling cell shards=%d cross=%.0f%% audit: %s@." shards
          cross_pct audit;
        exit 1
      end)
    (List.concat_map
       (fun n -> if n = 1 then [ (n, 0.) ] else [ (n, 0.); (n, 10.) ])
       (Sim.Shard_exp.shard_counts 8));
  print_endline "shard-scaling audit assertion: every cell hybrid-atomic: OK"

(* Sum of the fastest nine tenths of [a] (sorted in place) and how many
   entries that is: the slowest tenth carries the preemption and GC
   outliers of a shared host, a systematic cost is in every entry and
   survives the trim. *)
let trimmed_sum a =
  Array.sort compare a;
  let keep = Array.length a * 9 / 10 in
  let s = ref 0. in
  for i = 0 to keep - 1 do
    s := !s +. a.(i)
  done;
  (!s, keep)

(* The always-on budget, enforced: the span-marks tier (level 1, with
   the background flusher actually running, as a serve deployment has
   it) must cost the workload < 5% of throughput against the recorder
   switched off.  On/off trials interleave so clock drift and cache
   warmth cancel, and the medians are compared — a single hot trial
   must not fail CI, a real regression in the emit path must. *)
let run_flight_overhead () =
  print_endline "";
  print_endline
    "flight overhead (level-1 span marks + running flusher vs recorder off, 3-op txns):";
  let module CObj = Runtime.Atomic_obj.Make (Adt.Counter) in
  let mgr = Runtime.Manager.create () in
  let c = CObj.create ~conflict:Adt.Counter.conflict_hybrid () in
  let slice_txns = 1_000 in
  let batch () =
    for _ = 1 to slice_txns do
      Runtime.Manager.run mgr (fun txn ->
          ignore (CObj.invoke c txn (Adt.Counter.Inc 1));
          ignore (CObj.invoke c txn (Adt.Counter.Inc 2));
          ignore (CObj.invoke c txn (Adt.Counter.Inc 3)))
    done
  in
  Obs.Control.set_enabled true;
  let flight = Obs.Flight.start ~period_ms:10 () in
  Obs.Flight.set_level 0;
  let time level =
    Obs.Flight.set_level level;
    let t0 = Unix.gettimeofday () in
    batch ();
    let dt = Unix.gettimeofday () -. t0 in
    Obs.Flight.set_level 0;
    dt
  in
  for _ = 1 to 5 do
    batch ()
  done;
  (* warm-up *)
  (* Short off/on slices in strict alternation, compared by trimmed
     sums: interleaving makes both sides sample the same frequency and
     cache environment, and dropping each side's slowest tenth discards
     the preemption/GC outliers a shared CI box produces — the
     recorder's systematic cost is in every on-slice and survives the
     trim, so a real emit-path regression still fails the gate. *)
  let slices = 200 in
  let offs = Array.make slices 0. and ons = Array.make slices 0. in
  for i = 0 to slices - 1 do
    offs.(i) <- time 0;
    ons.(i) <- time 1
  done;
  let trimmed a =
    let s, keep = trimmed_sum a in
    (s, keep * slice_txns)
  in
  let t_off, n_off = trimmed offs and t_on, n_on = trimmed ons in
  let delta = (t_on /. float_of_int n_on /. (t_off /. float_of_int n_off)) -. 1. in
  Printf.printf
    "  recorder off: %10.0f txn/s\n  span marks:   %10.0f txn/s   delta %+.2f%%\n"
    (float_of_int n_off /. t_off)
    (float_of_int n_on /. t_on)
    (100. *. delta);
  Printf.printf "  recorder saw %d records (%d lost to ring wrap before the flusher)\n"
    (Obs.Flight.emitted ()) (Obs.Flight.lost ());
  Obs.Flight.stop flight;
  if delta > 0.05 then begin
    Format.eprintf
      "FAIL: level-1 span marks cost %.2f%% of throughput — over the 5%% always-on \
       budget@."
      (100. *. delta);
    exit 1
  end;
  Printf.printf "flight-overhead assertion: level-1 delta %.2f%% < 5%%: OK\n"
    (100. *. delta)

(* EXP-HOTPATH's two assertions (ISSUE 10 / ROADMAP item 2): the
   no-conflict WAL-off path takes zero mutexes end to end, and removing
   them bought a real speedup.  The zero-lock check is deterministic —
   Lockstat counts actual mutex acquisitions, so it is immune to CI
   machine noise.  The speedup check compares the same workload in the
   same process with Lockstat.force_slow routing everything through the
   pre-rework mutex paths, in short slices taken like the
   flight-overhead gate's; on boxes with fewer than 4 cores the mutex
   convoy never forms, so the ratio assertion relaxes to >= 1 there
   (the zero-lock check still proves the structural claim). *)
let run_hotpath () =
  print_endline "";
  print_endline "hotpath (no-conflict WAL-off transactions, lock-free fast path):";
  Obs.Control.set_enabled false;
  let txns = 5_000 in
  Format.printf "%a" Sim.Hotpath.pp_header ();
  let rows = Sim.Hotpath.sweep ~txns ~domains:[ 1; 2; 4; 8 ] () in
  List.iter (fun r -> Format.printf "%a" Sim.Hotpath.pp_row r) rows;
  let fast =
    List.find
      (fun r -> r.Sim.Hotpath.h_label = "private-8d")
      rows
  in
  (* The speedup: short lock-free and forced-mutex runs of the 8-domain
     private workload in alternation (which goes first flips every
     pair), each side's slowest tenth dropped, trimmed sums compared.
     One long run of each side read anywhere from 0.86x to 1.83x with
     the runtime unchanged, 8 domains on 2 cores. *)
  let slices = 40 and slice_txns = 1_000 and domains = 8 in
  let slice force_slow =
    (Sim.Hotpath.run ~txns:slice_txns ~shape:`Private ~force_slow ~label:"private-8d-slice"
       ~domains ())
      .Sim.Hotpath.h_wall
  in
  let fasts = Array.make slices 0. and slows = Array.make slices 0. in
  for i = 0 to slices - 1 do
    if i land 1 = 0 then begin
      fasts.(i) <- slice false;
      slows.(i) <- slice true
    end
    else begin
      slows.(i) <- slice true;
      fasts.(i) <- slice false
    end
  done;
  let t_fast, keep = trimmed_sum fasts and t_slow, _ = trimmed_sum slows in
  let us t = t /. float_of_int (keep * domains * slice_txns) *. 1e6 in
  let speedup = t_slow /. t_fast in
  let locks = Runtime.Lockstat.total fast.Sim.Hotpath.h_locks in
  Printf.printf
    "  8-domain private, %d of %d paired slices: %.2f us/txn lock-free vs %.2f us/txn \
     forced-mutex (%.2fx); private-8d took %d mutex acquisitions\n"
    keep slices (us t_fast) (us t_slow) speedup locks;
  if locks <> 0 then begin
    Format.eprintf
      "FAIL: uncontended txn path took %d mutex acquisitions (obj %d, mgr %d) — expected 0@."
      locks fast.Sim.Hotpath.h_locks.Runtime.Lockstat.s_obj
      fast.Sim.Hotpath.h_locks.Runtime.Lockstat.s_mgr;
    exit 1
  end;
  Printf.printf "hotpath assertion: uncontended path mutex acquisitions = 0: OK\n";
  let min_speedup = if Domain.recommended_domain_count () >= 4 then 2.0 else 1.0 in
  if speedup < min_speedup then begin
    Format.eprintf "FAIL: lock-free speedup %.2fx < required %.2fx@." speedup min_speedup;
    exit 1
  end;
  Printf.printf "hotpath assertion: lock-free speedup %.2fx >= %.2fx: OK\n" speedup min_speedup

let () =
  (* `--group-commit-only` / `--shard-scaling-only` /
     `--flight-overhead-only` / `--hotpath-only` skip the Bechamel
     groups: the CI assertions need those sections' exit codes, not 30s
     of microbenchmarks. *)
  if Array.exists (String.equal "--group-commit-only") Sys.argv then begin
    run_group_commit ();
    exit 0
  end;
  if Array.exists (String.equal "--shard-scaling-only") Sys.argv then begin
    run_shard_scaling ();
    exit 0
  end;
  if Array.exists (String.equal "--flight-overhead-only") Sys.argv then begin
    run_flight_overhead ();
    exit 0
  end;
  if Array.exists (String.equal "--hotpath-only") Sys.argv then begin
    run_hotpath ();
    exit 0
  end;
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, ns, r2) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-55s %15s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let time =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
        else Printf.sprintf "%10.1f ns" ns
      in
      Printf.printf "%-55s %15s %8.3f\n" name time r2)
    rows;
  Obs.Control.set_enabled true;
  print_endline "";
  print_endline "per-figure work counters (Obs.Metrics, while the switch was on):";
  List.iter
    (fun (name, v) ->
      if String.length name >= 6 && String.sub name 0 6 = "bench." then
        Printf.printf "  %-53s %d\n" name v)
    (Obs.Metrics.counters ());
  run_group_commit ();
  run_shard_scaling ();
  run_flight_overhead ();
  run_hotpath ();
  print_endline "";
  print_endline
    "note: multicore contention experiments (throughput per conflict relation)";
  print_endline "      are produced by: dune exec bin/main.exe -- experiments"
