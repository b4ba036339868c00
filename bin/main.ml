(* hybrid-cc: command-line entry point for the reproduction.

   Subcommands:
   - figures: regenerate the paper's dependency/commutativity tables from
     the serial specifications and diff them against the paper.
   - experiments: run the measured concurrency experiments (the EXP-
     series from DESIGN.md), wall-clock or virtual-time.
   - trace: the same experiments with observability forced on, analyzed
     and exported (conflict attribution, wait-for audit, Chrome trace).
   - history: replay the paper's Section 3.2 queue history through the
     LOCK machine and the atomicity checkers.
   - derive: derive any shipped data type's conflict tables from its
     serial specification.
   - recover: recover every object from write-ahead logs and audit it.
   - crash: kill-point crash-recovery experiments, single-log or 2PC.
   - profile: span profiling under the flight recorder, with SLO gates.
   - serve: a long-running workload with the introspection server and
     the online auditor attached.
   - top: a terminal dashboard polling a serve process. *)

let pp_figure ~verbose f =
  let derived = f.Figures.derived () in
  let ok = Figures.check f in
  Format.printf "%a@." Spec.Classify.pp_table derived;
  Format.printf "matches the paper: %s@." (if ok then "YES" else "NO");
  if verbose then Format.printf "note: %s@." f.Figures.notes;
  if (not ok) && verbose then
    Format.printf "expected:@.%a@." Spec.Classify.pp_table f.Figures.expected;
  Format.printf "@.";
  ok

let figures_cmd id verbose =
  let figs =
    match id with
    | None -> Figures.all
    | Some id -> (
      match Figures.by_id id with
      | Some f -> [ f ]
      | None ->
        Format.eprintf "unknown figure id %S (use 4-1 .. 4-5 or 7-1)@." id;
        exit 2)
  in
  let ok = List.fold_left (fun acc f -> pp_figure ~verbose f && acc) true figs in
  if not ok then exit 1

(* Run the table [id] names in [by_id @ extra], or every [by_id] table
   when no id is given. *)
let select ?(extra = []) by_id id =
  match id with
  | None -> List.map (fun (_, run) -> run ()) by_id
  | Some id -> (
    let ids = by_id @ extra in
    match List.assoc_opt id ids with
    | Some run -> [ run () ]
    | None ->
      Format.eprintf "unknown experiment id %S (use %s)@." id
        (String.concat ", " (List.map fst ids));
      exit 2)

let select_tables ~scale ~seed ?key_skew ?cells ?(shards = 1) ?(cross_pct = 10.) ?wal_dir
    ?(group_commit = true) ?wal id =
  (* Sharded managers run their own per-shard WALs (plus the decision
     log) under prefixed names — the shared experiments.wal does not
     apply. *)
  let shard () =
    Sim.Shard_exp.exp_shard ~scale ~seed
      ~shards:(if shards > 1 then shards else 4)
      ~cross_pct ?wal_dir ~fsync:(Option.is_some wal_dir) ~group_commit ()
  in
  select
    (Sim.Experiments.by_id ~scale ~seed ?key_skew ?cells ?wal ())
    ~extra:[ ("shard", shard) ]
    id

(* The audits share one exit contract: trace replay proving the run was
   not hybrid atomic, or a cycle in the waits-for graph (impossible
   under wait-die), are protocol bugs — report and fail. *)
let audit_exit tables =
  let atomic = Sim.Experiments.violations tables in
  let cycles = Sim.Experiments.waitfor_failures tables in
  List.iter
    (fun (tid, label, e) ->
      Format.eprintf "ATOMICITY VIOLATION in %s / %s: %s@." tid label e)
    atomic;
  List.iter
    (fun (tid, label, c) -> Format.eprintf "WAIT-FOR CYCLE in %s / %s: %s@." tid label c)
    cycles;
  if atomic <> [] || cycles <> [] then exit 1

let with_out_file file f =
  let oc = open_out file in
  let ppf = Format.formatter_of_out_channel oc in
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush ppf ();
      close_out oc)
    (fun () -> f ppf)

(* The gate needs enough concurrent overlap to make the cell-blind
   machine's refusal mass statistically solid, so it pins its own scale
   (overriding --quick and the size options) and forces observability on
   — fired-conflict mass comes from the trace window. *)
let gate_scale = { Sim.Driver.domains = 4; txns = 150; think_us = 20. }

let partition_gate_exit tables =
  match List.find_opt (fun t -> t.Sim.Experiments.id = "EXP-DIRECTORY") tables with
  | None ->
    Format.eprintf "--partition-gate needs the directory experiment (use --id directory)@.";
    exit 2
  | Some t -> (
    match Sim.Experiments.partition_gate t with
    | Ok (blind, celled) ->
      Format.printf
        "partition gate: cell-blind fired-conflict mass %d >= 5x cell-locked %d — OK@."
        blind celled
    | Error e ->
      Format.eprintf "%s@." e;
      exit 1)

let experiments_cmd id deterministic scale metrics seed wal_dir group_commit key_skew cells
    gate shards cross_pct =
  if gate then Obs.Control.set_enabled true;
  if deterministic then begin
    List.iter
      (fun t -> Format.printf "%a@." Sim.Det_experiments.pp_table t)
      (select (Sim.Det_experiments.by_id ~seed) id)
  end
  else begin
    let scale = if gate then gate_scale else scale in
    Obs.Metrics.annotate "run.seed" (string_of_int seed);
    let sharded = id = Some "shard" in
    if sharded then Option.iter Sim.Driver.ensure_dir wal_dir;
    let wal =
      if sharded then None
      else
        Option.map
          (fun dir ->
            Sim.Driver.ensure_dir dir;
            let w = Wal.Log.create ~group_commit (Filename.concat dir "experiments.wal") in
            Obs.Metrics.annotate "run.wal" (Wal.Log.path w);
            w)
          wal_dir
    in
    let tables =
      select_tables ~scale ~seed ~key_skew ~cells ~shards ~cross_pct ?wal_dir
        ~group_commit ?wal id
    in
    (match wal with
    | Some w ->
      Wal.Log.close w;
      Format.printf "wrote write-ahead log to %s (%d records, %d live)@." (Wal.Log.path w)
        (Wal.Log.file_records w) (Wal.Log.live w)
    | None -> ());
    List.iter (fun t -> Format.printf "%a@." Sim.Experiments.pp_table t) tables;
    if metrics then begin
      Format.printf "== metrics ==@.";
      Obs.Metrics.dump Format.std_formatter ();
      let tr = Obs.Trace.global in
      Format.printf "trace.entries                %d@.trace.dropped                %d@."
        (List.length (Obs.Trace.entries tr))
        (Obs.Trace.dropped tr)
    end;
    audit_exit tables;
    if gate then partition_gate_exit tables
  end

let trace_cmd id scale conflicts waitfor chrome metrics_json seed key_skew cells =
  Obs.Control.set_enabled true;
  Obs.Metrics.annotate "run.seed" (string_of_int seed);
  let tables = select_tables ~scale ~seed ~key_skew ~cells id in
  List.iter (fun t -> Format.printf "%a@." Sim.Experiments.pp_table t) tables;
  if conflicts then
    List.iter (fun t -> Format.printf "%a@." Sim.Experiments.pp_conflicts t) tables;
  if waitfor then
    List.iter (fun t -> Format.printf "%a@." Sim.Experiments.pp_waitfor t) tables;
  (match chrome with
  | Some file ->
    with_out_file file (fun ppf ->
        Obs.Export.chrome_trace ppf (Sim.Experiments.windows tables));
    Format.printf "wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)@."
      file
  | None -> ());
  (match metrics_json with
  | Some file ->
    with_out_file file (fun ppf -> Obs.Export.metrics_json ppf ());
    Format.printf "wrote metrics JSON to %s@." file
  | None -> ());
  audit_exit tables

(* Registry for `derive`: every shipped ADT's tables, computed on demand
   from the serial specification alone. *)
let derive_registry =
  let entry (type i r s) name
      (module X : Spec.Adt_sig.BOUNDED with type inv = i and type res = r and type state = s)
      depth =
    let module D = Spec.Dependency.Make (X) in
    let module C = Spec.Commutativity.Make (X) in
    let module K = Spec.Classify.Make (X) in
    ( name,
      fun () ->
        let inv = D.invalidated_by ~depth in
        Format.printf "%a@."
          Spec.Classify.pp_table
          (K.classify ~title:(name ^ ": invalidated-by (minimal dependency relation)")
             (Spec.Relation.pred inv));
        Format.printf "is a dependency relation (Theorem 10): %b@.is minimal: %b@.@."
          (D.is_dependency_relation ~depth (Spec.Relation.pred inv))
          (D.is_minimal ~depth inv);
        let ftc = C.failure_to_commute ~depth in
        Format.printf "%a@."
          Spec.Classify.pp_table
          (K.classify ~title:(name ^ ": failure-to-commute (commutativity-based conflicts)")
             (Spec.Relation.pred ftc));
        let hybrid = Spec.Relation.symmetric_closure inv in
        Format.printf
          "hybrid conflicts vs commutativity conflicts: %s@.@."
          (if Spec.Relation.equal hybrid ftc then "equal"
           else if Spec.Relation.proper_subset hybrid ftc then
             "hybrid strictly finer (more concurrency)"
           else if Spec.Relation.proper_subset ftc hybrid then
             "commutativity strictly finer (invalidated-by is not minimal here)"
           else "incomparable") )
  in
  [
    entry "file" (module Adt.File_adt) 3;
    entry "queue" (module Adt.Fifo_queue) 3;
    entry "semiqueue" (module Adt.Semiqueue) 3;
    entry "account" (module Adt.Account) 3;
    entry "counter" (module Adt.Counter) 2;
    entry "directory" (module Adt.Directory) 2;
    entry "log" (module Adt.Log_adt) 3;
    entry "bounded-buffer" (module Adt.Bounded_buffer) 3;
  ]

let derive_cmd id =
  let entries =
    match id with
    | None -> derive_registry
    | Some name -> (
      match List.assoc_opt name derive_registry with
      | Some f -> [ (name, f) ]
      | None ->
        Format.eprintf "unknown type %S (use %s)@." name
          (String.concat ", " (List.map fst derive_registry));
        exit 2)
  in
  List.iter (fun (_, f) -> f ()) entries

(* Recovery audit: parse the log(s), recover every declared object
   through its checkpoint, cross-check against the reference replay.
   Non-zero exit on any mismatch — the contract the CI crash-smoke job
   keys on after killing a durable run. *)
let recover_cmd path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".wal")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  if files = [] then begin
    Format.eprintf "no .wal files under %s@." path;
    exit 2
  end;
  (* Coordinator decision logs hold no objects; they resolve the other
     logs' in-doubt 2PC branches (commit at the decided timestamp,
     presumed abort otherwise). *)
  let dlogs, wals =
    List.partition (fun f -> Filename.check_suffix f "decisions.wal") files
  in
  let decisions = List.concat_map Dist.Decision_log.read dlogs in
  List.iter
    (fun f ->
      Format.printf "== decision log %s: %d retained decision(s) ==@." f
        (List.length (Dist.Decision_log.read f)))
    dlogs;
  let decided = if dlogs = [] then None else Some (fun g -> List.assoc_opt g decisions) in
  let all_ok =
    List.fold_left
      (fun acc file ->
        Format.printf "== recover %s ==@." file;
        let report = Sim.Durable.verify_file ?decided file in
        Format.printf "%a@." Sim.Durable.pp_report report;
        acc && Sim.Durable.ok report)
      true wals
  in
  if not all_ok then exit 1

let crash_cmd scale seed dir group_commit shards cross_pct =
  Sim.Driver.ensure_dir dir;
  Obs.Metrics.annotate "run.seed" (string_of_int seed);
  if shards > 1 then begin
    (* The sharded mode runs the 2PC kill-point matrix instead: a
       coordinator crash at every protocol milestone, in both
       group-commit modes, recovery checked against the decision log. *)
    let m = Sim.Shard_crash.run ~shards ~cross_pct ~dir () in
    Format.printf "%a@." Sim.Shard_crash.pp m;
    if not (Sim.Shard_crash.ok m) then exit 1
  end
  else begin
    let runs = Sim.Crash_exp.all ~scale ~seed ~group_commit ~dir () in
    List.iter (fun r -> Format.printf "%a@." Sim.Crash_exp.pp_run r) runs;
    if not (List.for_all Sim.Crash_exp.ok runs) then exit 1
  end

(* ------------------------------------------------------------------ *)
(* profile: span-profiling run — flight recorder on, SLO verdicts out  *)

let profile_cmd scale seed wal_dir group_commit shards cross_pct detail out report_file
    slo_specs chrome =
  Obs.Control.set_enabled true;
  let targets =
    match Obs.Profile.targets_of_specs slo_specs with
    | Ok ts -> ts
    | Error e ->
      Format.eprintf "hcc profile: %s@." e;
      exit 2
  in
  Option.iter Sim.Driver.ensure_dir wal_dir;
  (match Filename.dirname out with "" | "." -> () | d -> Sim.Driver.ensure_dir d);
  (* Cross-shard spans need shards to cross; profile defaults to 3. *)
  let shards = if shards > 1 then shards else 3 in
  let r =
    Sim.Profile_run.run ~scale ~seed ?wal_dir ~fsync:(Option.is_some wal_dir)
      ~group_commit ~detail ~shards ~cross_pct ~path:out ()
  in
  Format.printf
    "profiled %d txns (%d cross-shard 2PC) across %d shards in %.2fs@.recorder: %d \
     records emitted, %d lost, file %s@.@."
    r.Sim.Profile_run.p_committed r.Sim.Profile_run.p_cross_commits shards
    r.Sim.Profile_run.p_wall r.Sim.Profile_run.p_emitted r.Sim.Profile_run.p_lost out;
  (* The printed report comes from the offline decode of the file just
     written — one invocation exercises the whole emit → flush → decode
     → report pipeline, which is what CI's profile-smoke job keys on. *)
  let agg, records, meta, tail = Sim.Profile_run.decode_file out in
  (match tail with
  | Obs.Flight.Clean -> ()
  | Obs.Flight.Torn off -> Format.printf "note: torn tail at byte %d (ignored)@." off);
  let report = Obs.Profile.report agg in
  Format.printf "%a@." Obs.Profile.pp_report report;
  Option.iter
    (fun file ->
      with_out_file file (fun ppf -> Obs.Profile.pp_report ppf report);
      Format.printf "wrote report to %s@." file)
    report_file;
  (match chrome with
  | Some file ->
    with_out_file file (fun ppf ->
        Obs.Export.chrome_spans ppf
          (Obs.Profile.chrome_slices ~lookup:(Obs.Profile.meta_lookup meta) records));
    Format.printf "wrote span timeline to %s (open in ui.perfetto.dev)@." file
  | None -> ());
  if targets <> [] then begin
    let verdicts = Obs.Profile.check report targets in
    Format.printf "%a@." Obs.Profile.pp_verdicts verdicts;
    if Obs.Profile.breached verdicts then exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve: long-running workload with the introspection server attached *)

(* What a serve mode plugs into the one serve loop. *)
type served = {
  sharded : bool;
  workload : string;  (* the banner's workload line *)
  window : unit -> Obs.Trace.entry list;  (* the window behind /waitfor *)
  rotate : (unit -> unit) option;  (* epoch rotation, once per tick *)
  inject : unit -> bool;  (* forge a violation; [false] = not possible yet *)
  injected : string;
  stop : unit -> unit;  (* join the workers *)
  close : unit -> string;  (* release the workload; returns the summary *)
}

(* Sharded serve: N managers on disjoint timestamp stripes, the 2PC
   coordinator between them, and the sampler continuously re-running the
   cross-shard audit over the live per-shard rings (sound on partial
   windows, so no epoch rotation is needed).  /metrics, /locks and
   /horizon aggregate every shard's instruments under shard labels. *)
let serve_sharded ~seed ~wal_dir ~group_commit ~domains ~think_us ~shards ~cross_pct =
  Obs.Metrics.annotate "run.mode" "serve-sharded";
  Obs.Metrics.annotate "run.shards" (string_of_int shards);
  let live =
    Sim.Shard_live.start ?wal_dir ~group_commit
      { Sim.Shard_live.default_config with shards; cross_pct; seed; domains; think_us }
  in
  {
    sharded = true;
    workload =
      Printf.sprintf "%d shards, %d domains, %.0f%% cross-shard, think %.0fus" shards
        domains cross_pct think_us;
    window = (fun () -> Sim.Shard_live.stitched live);
    rotate = None;
    inject = (fun () -> Sim.Shard_live.inject_violation live);
    injected = "injected a decided-abort commit forgery into shard 0's trace";
    stop = (fun () -> Sim.Shard_live.stop live);
    close =
      (fun () ->
        let st = Sim.Shard_live.stats live in
        Sim.Shard_live.close live;
        Printf.sprintf
          "%d shards served %d committed (%d cross-shard 2PC), %d aborted attempts, %d \
           cross aborts"
          shards st.Sim.Shard_live.s_committed st.Sim.Shard_live.s_cross_commits
          st.Sim.Shard_live.s_aborted st.Sim.Shard_live.s_cross_aborts);
  }

let serve_single ~seed ~wal_dir ~group_commit ~domains ~think_us ~period_ms =
  Obs.Metrics.annotate "run.mode" "serve";
  let wal =
    Option.map
      (fun dir ->
        let w = Wal.Log.create ~group_commit (Filename.concat dir "live.wal") in
        Wal.Log.register_introspection w;
        Obs.Metrics.annotate "run.wal" (Wal.Log.path w);
        w)
      wal_dir
  in
  let live = Sim.Live.start ?wal { Sim.Live.default_config with domains; think_us; seed } in
  {
    sharded = false;
    workload =
      Printf.sprintf "%d domains, think %.0fus, epoch rotation every %dms" domains think_us
        period_ms;
    window = (fun () -> Obs.Trace.entries (Sim.Live.current_ring live));
    rotate = Some (fun () -> Sim.Live.rotate live);
    inject = (fun () -> Sim.Live.inject_violation live);
    injected = "injected a forged double-dequeue into the live trace";
    stop = (fun () -> Sim.Live.stop live);
    close =
      (fun () ->
        Option.iter Wal.Log.close wal;
        let st = Runtime.Manager.stats (Sim.Live.manager live) in
        Printf.sprintf "served %d epochs; %d committed, %d aborted attempts"
          (Sim.Live.epochs live) st.Runtime.Manager.committed st.Runtime.Manager.aborted);
  }

let serve_cmd quick port duration period_ms seed wal_dir group_commit domains think_us
    inject shards cross_pct =
  Obs.Control.set_enabled true;
  ignore (Obs.Control.install_sigusr2 ());
  Obs.Metrics.annotate "run.seed" (string_of_int seed);
  Option.iter Sim.Driver.ensure_dir wal_dir;
  let domains, think_us = if quick then (2, 50.) else (domains, think_us) in
  let duration = if quick && duration = 0. then 10. else duration in
  let s =
    if shards > 1 then
      serve_sharded ~seed ~wal_dir ~group_commit ~domains ~think_us ~shards ~cross_pct
    else serve_single ~seed ~wal_dir ~group_commit ~domains ~think_us ~period_ms
  in
  (* Audit several times per rotation so every epoch's replay audit runs
     before the next rotation replaces it. *)
  let sampler = Obs.Sampler.start ~period_ms:(max 50 (period_ms / 4)) () in
  (* Flight recorder at the always-on tier (span marks only); its
     flusher feeds the online span aggregator behind /slo. *)
  let slo_agg = Obs.Profile.create () in
  let flight = Obs.Flight.start ~observer:(Obs.Profile.feed slo_agg) () in
  let routes =
    ( "/waitfor",
      fun _ ->
        Obs.Server.respond_json (Obs.Waitfor.to_json (Obs.Waitfor.analyze (s.window ()))) )
    :: Obs.Server.default_routes ~slo:(fun () -> Obs.Profile.to_json slo_agg) ()
  in
  let server = Obs.Server.start ~port ~routes () in
  Format.printf
    "hcc: serving %sintrospection on http://127.0.0.1:%d@.  endpoints: /metrics /locks \
     /horizon /waitfor /slo /health /control%s@.  workload: %s%s@.%!"
    (if s.sharded then "sharded " else "")
    (Obs.Server.port server)
    (if s.sharded then " (per-shard, shard-labelled)" else "")
    s.workload
    (if duration > 0. then Printf.sprintf ", running %.0fs" duration
     else " (Ctrl-C to stop)");
  let stop_requested = Atomic.make false in
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
   with Invalid_argument _ | Sys_error _ -> ());
  let deadline = if duration > 0. then Some (Unix.gettimeofday () +. duration) else None in
  let injected = ref false in
  let finished () =
    Atomic.get stop_requested
    || match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  while not (finished ()) do
    Unix.sleepf (float_of_int period_ms /. 1000.);
    if inject && not !injected then begin
      injected := s.inject ();
      if !injected then Format.printf "hcc: %s@.%!" s.injected
    end;
    Option.iter (fun rotate -> rotate ()) s.rotate
  done;
  s.stop ();
  (* One last audit pass over the final (now quiescent) windows.  Under
     epoch rotation, drain the epoch pipeline first: each rotation
     promotes one retired epoch to auditable, and the audit must run
     before the next rotation replaces it. *)
  (match s.rotate with
  | None -> ignore (Obs.Sampler.run_once ())
  | Some rotate ->
    for _ = 1 to 2 do
      rotate ();
      ignore (Obs.Sampler.run_once ())
    done);
  Obs.Sampler.stop sampler;
  Obs.Flight.stop flight;
  Obs.Server.stop server;
  Format.printf "hcc: %s@." (s.close ());
  if Obs.Sampler.healthy () then Format.printf "audit: clean (0 violations)@."
  else begin
    Format.eprintf "audit: %d violation(s); last: %s@." (Obs.Sampler.violations ())
      (Option.value ~default:"unknown" (Obs.Sampler.last_error ()));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* top: terminal dashboard polling a serve process                     *)

let get_ok ~port path =
  match Obs.Server.http_get ~port path with
  | Ok (200, body) -> body
  | Ok (status, _) ->
    Format.eprintf "hcc top: GET %s returned %d@." path status;
    exit 1
  | Error e ->
    Format.eprintf "hcc top: GET %s failed: %s@." path e;
    exit 1

let parse_or_die what = function
  | Ok v -> v
  | Error e ->
    Format.eprintf "hcc top: cannot parse %s: %s@." what e;
    exit 1

let metric series name = Option.value ~default:0. (Obs.Expose.find name series)

let top_tick ~port ~prev_commits ~dt =
  let series = parse_or_die "/metrics" (Obs.Expose.parse (get_ok ~port "/metrics")) in
  let horizon = parse_or_die "/horizon" (Obs.Json.parse (get_ok ~port "/horizon")) in
  let locks = parse_or_die "/locks" (Obs.Json.parse (get_ok ~port "/locks")) in
  let health_status, health_body =
    match Obs.Server.http_get ~port "/health" with
    | Ok (status, body) -> (status, String.trim body)
    | Error e ->
      Format.eprintf "hcc top: GET /health failed: %s@." e;
      exit 1
  in
  let commits = metric series "hcc_txn_commits_total" in
  let rate =
    match prev_commits with
    | Some prev when dt > 0. -> (commits -. prev) /. dt
    | _ -> 0.
  in
  Format.printf "hcc top — 127.0.0.1:%d   health: %s@." port
    (if health_status = 200 then "ok" else "DEGRADED (" ^ health_body ^ ")");
  Format.printf
    "txn/s %8.0f   commits %8.0f   aborts %6.0f   retries %6.0f   waiting %3.0f@." rate
    commits
    (metric series "hcc_txn_aborts_total")
    (metric series "hcc_retry_retries_total")
    (metric series "hcc_retry_waiting");
  Format.printf
    "audit: passes %.0f   violations %.0f   cycles %.0f   windows lost %.0f   lag %.2fs \
     (ring lost %.0f)@."
    (metric series "hcc_audit_passes_total")
    (metric series "hcc_audit_violations_total")
    (metric series "hcc_audit_cycles_total")
    (metric series "hcc_audit_window_lost_total")
    (metric series "hcc_audit_lag_seconds")
    (metric series "hcc_trace_window_lost");
  Format.printf "flight: emitted %.0f   lost %.0f@."
    (metric series "hcc_flight_emitted_records")
    (metric series "hcc_flight_lost_records");
  (* Phase pane, fed by /slo (absent on pre-recorder servers: skipped). *)
  (match Obs.Server.http_get ~port "/slo" with
  | Ok (200, body) -> (
    match Obs.Json.parse body with
    | Error _ -> ()
    | Ok slo ->
      let stat_of name j =
        Option.bind (Obs.Json.member name j) (fun s ->
            match
              ( Option.bind (Obs.Json.member "count" s) Obs.Json.to_int,
                Option.bind (Obs.Json.member "p99_s" s) Obs.Json.to_float )
            with
            | Some count, Some p99 -> Some (count, p99)
            | _ -> None)
      in
      let local = stat_of "local" slo and cross = stat_of "cross" slo in
      let pair = function
        | Some (count, p99) when count > 0 -> Printf.sprintf "%.2fms (n=%d)" (p99 *. 1e3) count
        | _ -> "-"
      in
      Format.printf "spans: local p99 %s   cross p99 %s   open %d   aborted %d@."
        (pair local) (pair cross)
        (Option.value ~default:0 (Option.bind (Obs.Json.member "open" slo) Obs.Json.to_int))
        (Option.value ~default:0
           (Option.bind (Obs.Json.member "aborts" slo) Obs.Json.to_int));
      (* Share of the end-to-end p99 each phase accounts for: where a
         slow tail lives (lock waits vs the fsync barrier vs execution). *)
      let total_p99 =
        let v = function Some (c, p) when c > 0 -> p | _ -> 0. in
        Float.max (v local) (v cross)
      in
      (match Obs.Json.member "phases" slo with
      | Some (Obs.Json.Obj phases) when total_p99 > 0. ->
        let cells =
          List.filter_map
            (fun (name, st) ->
              match
                ( Option.bind (Obs.Json.member "count" st) Obs.Json.to_int,
                  Option.bind (Obs.Json.member "p99_s" st) Obs.Json.to_float )
              with
              | Some c, Some p99 when c > 0 && p99 > 0. ->
                Some
                  (Printf.sprintf "%s %.0f%% (%.2fms)" name
                     (100. *. p99 /. total_p99) (p99 *. 1e3))
              | _ -> None)
            phases
        in
        if cells <> [] then Format.printf "phase p99: %s@." (String.concat "   " cells)
      | _ -> ()))
  | Ok _ | Error _ -> ());
  let int_member name j = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  (match Obs.Json.to_list horizon with
  | Some rows when rows <> [] ->
    Format.printf "horizon:@.";
    List.iter
      (fun row ->
        match Option.bind (Obs.Json.member "object" row) Obs.Json.to_str with
        | None -> ()
        | Some name ->
          let field n =
            match int_member n row with Some v -> string_of_int v | None -> "-"
          in
          if int_member "clock_lag" row <> None then
            Format.printf "  %-16s horizon %-6s clock %-6s lag %-4s remembered %-4s live_ops %s@."
              name (field "horizon") (field "clock") (field "clock_lag")
              (field "remembered") (field "live_ops")
          else
            Format.printf "  %-16s clock %-6s stable %-6s inflight %s@." name
              (field "clock") (field "stable_time") (field "inflight"))
      rows
  | _ -> ());
  (match Obs.Json.to_list locks with
  | Some rows when rows <> [] ->
    Format.printf "locks:@.";
    List.iter
      (fun row ->
        match Option.bind (Obs.Json.member "object" row) Obs.Json.to_str with
        | None -> ()
        | Some name ->
          let active =
            match Option.bind (Obs.Json.member "active" row) Obs.Json.to_list with
            | Some l -> List.length l
            | None -> 0
          in
          let field n =
            match int_member n row with Some v -> string_of_int v | None -> "-"
          in
          Format.printf "  %-16s active %-4d conflicts %-6s blocked %s@." name active
            (field "conflicts") (field "blocked"))
      rows
  | _ -> ());
  Format.printf "%!";
  commits

let top_cmd port interval iterations =
  let interactive = iterations <> 1 && Unix.isatty Unix.stdout in
  let prev = ref None in
  let i = ref 0 in
  let continue () = iterations <= 0 || !i < iterations in
  while continue () do
    if !i > 0 then Unix.sleepf interval;
    if interactive then print_string "\027[2J\027[H";
    let dt = if !i = 0 then 0. else interval in
    prev := Some (top_tick ~port ~prev_commits:!prev ~dt);
    incr i
  done

let history_cmd () =
  let module Q = Adt.Fifo_queue in
  let module L = Hybrid.Lock_machine.Make (Q) in
  let module At = Model.Atomicity.Make (Q) in
  let module H = L.H in
  let p = Model.Txn.make ~label:"P" 1 in
  let q = Model.Txn.make ~label:"Q" 2 in
  let r = Model.Txn.make ~label:"R" 3 in
  let history : H.t =
    [
      H.Invoke (p, Q.Enq 1);
      H.Respond (p, Q.Ok);
      H.Invoke (q, Q.Enq 2);
      H.Respond (q, Q.Ok);
      H.Commit (p, 2);
      H.Commit (q, 1);
      H.Invoke (r, Q.Deq);
      H.Respond (r, Q.Val 2);
      H.Invoke (r, Q.Deq);
      H.Respond (r, Q.Val 1);
      H.Commit (r, 5);
    ]
  in
  Format.printf "The paper's Section 3.2 FIFO-queue history:@.%a@.@." H.pp history;
  Format.printf "well-formed:                        %s@."
    (match H.well_formed history with Ok () -> "yes" | Error e -> "NO: " ^ e);
  Format.printf "accepted by LOCK (hybrid, fig 4-2): %b@."
    (L.accepts ~conflict:Q.conflict_hybrid history);
  Format.printf "accepted by LOCK (commutativity):   %b   <- concurrent Enqs conflict there@."
    (L.accepts ~conflict:Q.conflict_commutativity history);
  Format.printf "hybrid atomic:                      %b@." (At.hybrid_atomic history);
  Format.printf "online hybrid atomic:               %b@." (At.online_hybrid_atomic history)

open Cmdliner

let id_arg =
  Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc:"Select one item.")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Show notes and diffs.")

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Concurrent domains.")

let txns_arg =
  Arg.(value & opt int 100 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per domain.")

let think_arg =
  Arg.(
    value
    & opt float 100.
    & info [ "think-us" ] ~docv:"US" ~doc:"Think time between operations (microseconds).")

let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Run under the virtual-time simulator: exactly reproducible results.  The scale \
           is fixed at 4 workers x 25 txns (the size options, --quick and --metrics do \
           not apply).  --seed is passed to the scripts and shown in the tables' params \
           line, but the numbers do not yet vary with it: every seed tried prints the \
           seed-0 reference tables.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Use the small test scale (2 domains x 20 txns); overrides the size options.")

(* The run size: --quick, or --domains x --txns with --think-us. *)
let scale_t =
  Term.(
    const (fun quick domains txns think_us ->
        if quick then Sim.Driver.quick_scale else { Sim.Driver.domains; txns; think_us })
    $ quick_arg $ domains_arg $ txns_arg $ think_arg)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Dump the observability metrics registry and trace counters after the run.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Workload seed: shifts the deterministic operation-value sequence so reruns \
           explore different workloads reproducibly.  Recorded in the metrics dump.")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Run durably: write a write-ahead intentions log to $(docv)/experiments.wal \
           (commit records fsynced before commit events are distributed).  Verify it \
           afterwards with the $(b,recover) subcommand.")

let group_commit_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "group-commit" ]
              ~doc:
                "Batch commit-record fsyncs (the default): the first committer to reach \
                 the sync barrier fsyncs once for every commit record appended so far; \
                 concurrent committers wait for that barrier instead of issuing their \
                 own." );
          ( false,
            info [ "no-group-commit" ]
              ~doc:"Serialize fsyncs: every committer issues its own (the pre-batching \
                    behaviour, kept as a baseline)." );
        ])

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard the system into $(docv) managers on disjoint timestamp stripes, with \
           cross-shard transactions running presumed-abort two-phase commit through the \
           coordinator.  1 (the default) keeps the single-manager paths; \
           $(b,experiments --id shard) defaults to 4; $(b,serve)/$(b,crash) switch to \
           their sharded modes when $(docv) > 1.")

let cross_pct_arg =
  Arg.(
    value & opt float 10.
    & info [ "cross-shard-pct" ] ~docv:"P"
        ~doc:
          "Percentage of transactions spanning two shards (a coordinator transfer \
           between a home and a partner account).  Only meaningful with \
           $(b,--shards) > 1.")

let key_skew_arg =
  Arg.(
    value & opt float 0.
    & info [ "key-skew" ] ~docv:"S"
        ~doc:
          "Zipf skew of the cell-key draw in the directory experiment: 0 is uniform \
           (fully partitionable traffic), larger values concentrate operations on key 0 \
           (contended-single-key traffic).  Seeded from $(b,--seed).")

let cells_arg =
  Arg.(
    value & opt int 8
    & info [ "cells" ] ~docv:"N"
        ~doc:"Cell count of the cell-locked machine in the directory experiment.")

let partition_gate_arg =
  Arg.(
    value & flag
    & info [ "partition-gate" ]
        ~doc:
          "Assert the cell-locking claim and exit non-zero if it fails: on the directory \
           experiment's table, the key-blind whole-object machine must fire at least 5x \
           the conflict mass of the cell-locked machine.  Forces observability on and \
           pins the run to the gate scale (4 domains x 150 txns, think 20us), overriding \
           the size options.")

let figures_t =
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures from the specifications")
    Term.(const figures_cmd $ id_arg $ verbose_arg)

let experiments_t =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the measured concurrency experiments")
    Term.(
      const experiments_cmd $ id_arg $ deterministic_arg $ scale_t $ metrics_arg $ seed_arg
      $ wal_arg $ group_commit_arg $ key_skew_arg $ cells_arg $ partition_gate_arg
      $ shards_arg $ cross_pct_arg)

let conflicts_arg =
  Arg.(
    value & flag
    & info [ "conflicts" ]
        ~doc:
          "Print per-object conflict matrices: which (requested, held) operation pairs \
           fired refusals, how often, and the blocked time each cost, plus the \
           hybrid-vs-commutativity fired-conflict-mass comparison.")

let waitfor_arg =
  Arg.(
    value & flag
    & info [ "waitfor" ]
        ~doc:
          "Print the waits-for graph audit: wait-die must keep the graph acyclic, so any \
           cycle fails the run; also reports per-transaction blocked time and abort \
           cascades.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write the run's trace window as Chrome trace_event JSON to $(docv) (load in \
           chrome://tracing or ui.perfetto.dev).")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the metrics registry as line-oriented JSON to $(docv).")

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the experiments with observability forced on and analyze/export the trace: \
          conflict attribution, wait-for audit, Chrome timeline, metrics JSON.  Exits \
          non-zero on an atomicity violation or a waits-for cycle.")
    Term.(
      const trace_cmd $ id_arg $ scale_t $ conflicts_arg $ waitfor_arg $ chrome_arg
      $ metrics_json_arg $ seed_arg $ key_skew_arg $ cells_arg)

let history_t =
  Cmd.v
    (Cmd.info "history" ~doc:"Replay the paper's Section 3.2 worked history")
    Term.(const history_cmd $ const ())

let derive_t =
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Derive conflict tables for any shipped data type (including the extension           types) from its serial specification")
    Term.(const derive_cmd $ id_arg)

let recover_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PATH" ~doc:"A .wal file, or a directory of .wal files.")

let recover_t =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover every object from a write-ahead log and audit the result: recovery \
          through the latest checkpoint must match an independent replay of the \
          committed prefix from the initial state.  Exits non-zero on any mismatch or \
          unrecoverable corruption; a torn tail is tolerated (that is what a crash \
          leaves).")
    Term.(const recover_cmd $ recover_path_arg)

let crash_dir_arg =
  Arg.(
    value
    & opt string "_crash"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Directory for the experiment logs.")

let crash_t =
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Run the crash-recovery experiments: concurrent durable workloads, then a \
          simulated kill -9 at every deterministic kill point of the finished log \
          (around each commit record, mid-append, torn tail).  Each crash image must \
          recover exactly its committed prefix.  With $(b,--shards) > 1, runs the 2PC \
          kill-point matrix instead: a coordinator crash at every protocol milestone \
          (before prepare, each vote, decision durable, each ack) in both group-commit \
          modes, with recovery checked against the decision log.  Exits non-zero on any \
          failure.")
    Term.(
      const crash_cmd $ scale_t $ seed_arg $ crash_dir_arg $ group_commit_arg $ shards_arg
      $ cross_pct_arg)

let profile_detail_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "detail" ]
              ~doc:
                "Record per-ADT-op detail (level 2, the default here): adds the \
                 per-operation latency rows to the report." );
          ( false,
            info [ "marks-only" ]
              ~doc:
                "Record span phase marks only (level 1, the always-on deployment tier \
                 whose throughput cost the flight-overhead bench gates at < 5%)." );
        ])

let profile_out_arg =
  Arg.(
    value
    & opt string "_profile/flight.bin"
    & info [ "out" ] ~docv:"FILE" ~doc:"Flight-recorder output file.")

let profile_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE" ~doc:"Also write the latency report to $(docv).")

let slo_arg =
  Arg.(
    value & opt_all string []
    & info [ "slo" ] ~docv:"METRIC:QUANTILE:LIMIT"
        ~doc:
          "SLO target, repeatable: $(docv) is e.g. $(b,local:p99:5ms), \
           $(b,cross:p999:50ms) or $(b,lock_wait:p90:800us).  Metrics are $(b,local), \
           $(b,cross) or a phase name; quantiles p50/p90/p99/p999/max; limits take \
           us/ms/s suffixes.  Any breached target makes the exit code non-zero.")

let profile_t =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile transaction spans under the binary flight recorder: run the sharded \
          workload (local credit/debit plus cross-shard 2PC transfers) with per-domain \
          ring recording on, then decode the flight file offline and report per-phase \
          and per-ADT-op latency quantiles (p50/p99/p999) for single- and cross-shard \
          transactions.  $(b,--slo) targets turn the tail into a gate: any breach exits \
          non-zero.  $(b,--chrome) exports a phase-nested span timeline.")
    Term.(
      const profile_cmd $ scale_t $ seed_arg $ wal_arg $ group_commit_arg $ shards_arg
      $ cross_pct_arg $ profile_detail_arg $ profile_out_arg $ profile_report_arg $ slo_arg
      $ chrome_arg)

let port_arg default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT" ~doc:"Introspection server TCP port (0 = ephemeral).")

let duration_arg =
  Arg.(
    value & opt float 0.
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:
          "Stop after this many seconds (0 = run until Ctrl-C; $(b,--quick) defaults \
           to 10s).")

let period_arg =
  Arg.(
    value & opt int 1000
    & info [ "period-ms" ] ~docv:"MS"
        ~doc:
          "Epoch rotation period: how often the workload's objects are retired to the \
           online auditor.  The audit sampler ticks at a quarter of this.")

let inject_arg =
  Arg.(
    value & flag
    & info [ "inject-violation" ]
        ~doc:
          "Forge a double-dequeue in the live trace once the workload has committed a \
           dequeue.  The online auditor must flag it: the violations counter rises, \
           /health degrades, and the process exits non-zero — the smoke test that the \
           auditor is actually watching.")

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a continuous mixed workload (FIFO queue, SemiQueue, Account under the \
          hybrid relations) with the live-introspection HTTP server attached: \
          Prometheus /metrics, JSON /locks /horizon /waitfor, /health, /control.  An \
          always-on sampler replay-checks each retired workload epoch and audits the \
          wait-for graph; any violation degrades /health and fails the exit code.  With \
          $(b,--shards) > 1 the workload runs sharded (per-shard managers, WALs and \
          shard-labelled instruments; cross-shard 2PC transfers at \
          $(b,--cross-shard-pct)) and the sampler runs the cross-shard atomicity audit \
          continuously.")
    Term.(
      const serve_cmd $ quick_arg $ port_arg 9090 $ duration_arg $ period_arg $ seed_arg
      $ wal_arg $ group_commit_arg $ domains_arg $ think_arg $ inject_arg $ shards_arg
      $ cross_pct_arg)

let interval_arg =
  Arg.(
    value & opt float 1.
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")

let iterations_arg =
  Arg.(
    value & opt int 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:
          "Stop after N refreshes (0 = run until interrupted).  $(b,--iterations 1) \
           prints one snapshot without clearing the screen — usable as a scrape/parse \
           check in CI.")

let top_t =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Terminal dashboard for a running $(b,serve) process: polls /metrics, /locks, \
          /horizon, /slo and /health over HTTP, parses its own exposition format, and \
          shows throughput, audit verdicts, the span phase breakdown (share of the p99 \
          each phase accounts for), per-object horizon lag and lock tables.  Exits \
          non-zero if a required endpoint is unreachable or fails to parse (/slo is \
          optional: servers without the flight recorder skip that pane).")
    Term.(const top_cmd $ port_arg 9090 $ interval_arg $ iterations_arg)

let main =
  Cmd.group
    (Cmd.info "hybrid-cc" ~version:"1.0.0"
       ~doc:
         "Reproduction of Herlihy & Weihl, \"Hybrid Concurrency Control for Abstract \
          Data Types\" (1988)")
    [
      figures_t;
      experiments_t;
      trace_t;
      history_t;
      derive_t;
      recover_t;
      crash_t;
      profile_t;
      serve_t;
      top_t;
    ]

let () = exit (Cmd.eval main)
