(* Closed-loop benchmark of the transaction runtime.

   One process, [domains] worker domains, no think time: each domain
   sends its next transaction only after the previous one returned.
   Three workloads (README.md next to this file says why each exists):

   - inmem-private: WAL off, observability off, one shared manager, one
     Account per domain, 8 Credit/Debit operations per transaction;
   - inmem-shared: the same with one Account for both domains and 4
     operations per transaction (Debit/Ok conflicts with Debit/Ok);
   - durable-sharded: 2 shards, each with its own fsync'd group-commit
     WAL, a forced decision log, per-shard trace rings, observability
     on; 90% local 3-operation transactions, 10% cross-shard transfers.

   A run is [episodes] episodes.  Each sets a fresh system up, starts
   the workers, lets them warm up, times one slice of [seconds /
   episodes], stops them and checks the outputs.  A fresh system per
   episode keeps every episode in the same state: the runtime's memory
   and, on inmem-shared, its latency grow with the number of
   transactions one system has run, so one long window would measure a
   different system at its end than at its start.

   [--trace 0] reports the end-to-end metrics.  [--trace 1] runs the
   untraced episodes, then as many traced ones: spans taken here, around
   the calls into each layer, plus the layers' own counters and
   (durable) the level-1 flight-recorder phases; it reports the
   per-layer metrics.  The last line of standard output is one JSON
   object. *)

module Aobj = Runtime.Atomic_obj.Make (Adt.Account)
module C = Hybrid.Compacted.Make (Adt.Account)
module R = Wal.Recover.Make (Adt.Account)
module Mgr = Runtime.Manager

let domains = 2
let shards = 2
let episodes = 10
let stable_every = 64
let replay_txns = 10_000
let now = Obs.Clock.now_ns

(* ------------------------------------------------------------------ *)
(* Options                                                             *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let wrong_total = ref false
let dump_inputs = ref 0
let commit = ref "unknown"
let nproc = ref "unknown"
let work_dir = ref ".perfbench_tmp"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME inmem-private | inmem-shared | durable-sharded");
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S timed seconds, split over the episodes (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ("--wrong-total", Arg.Set wrong_total, " negative control: expect a total one too high");
    ("--dump-inputs", Arg.Set_int dump_inputs, "N print each domain's first N inputs and exit");
    ("--commit", Arg.Set_string commit, "HASH commit recorded in the output");
    ("--nproc", Arg.Set_string nproc, "N online CPU count recorded in the output");
    ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory for WAL files");
  ]

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.
let slice_s () = !seconds /. float_of_int episodes
let warmup_s () = Float.min 0.25 (0.2 *. slice_s ())

(* ------------------------------------------------------------------ *)
(* The system under test                                               *)

type sys = {
  w : Gen.workload;
  mgrs : Mgr.t array; (* in-memory: one; durable: one per shard *)
  accounts : Aobj.t array; (* private: per domain; shared: one; durable: per shard *)
  router : Dist.Router.t option;
  coord : Dist.Coordinator.t option;
  dlog : Dist.Decision_log.t option;
  dir : string option;
}

let home d = d mod shards

let account_of sys d =
  match sys.w with
  | Gen.Inmem_private -> d
  | Gen.Inmem_shared -> 0
  | Gen.Durable_sharded -> home d

let mgr_of sys d = sys.mgrs.(if sys.w = Gen.Durable_sharded then home d else 0)

let seed_balance mgr acc =
  Mgr.run mgr (fun t -> ignore (Aobj.invoke acc t (Adt.Account.Credit Gen.initial_balance)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let build w ~dir =
  let conflict = Adt.Account.conflict_hybrid in
  match w with
  | Gen.Inmem_private | Gen.Inmem_shared ->
    let mgr = Mgr.create () in
    let n = if w = Gen.Inmem_private then domains else 1 in
    let accounts =
      Array.init n (fun i -> Aobj.create ~name:(Printf.sprintf "account%d" i) ~conflict ())
    in
    Array.iter (seed_balance mgr) accounts;
    { w; mgrs = [| mgr |]; accounts; router = None; coord = None; dlog = None; dir = None }
  | Gen.Durable_sharded ->
    mkdir_p dir;
    let router =
      Dist.Router.make ~wal_dir:dir ~fsync:true ~group_commit:true ~count:shards ()
    in
    let dlog =
      Dist.Decision_log.create ~fsync:true ~group_commit:true (Dist.Shard.decision_file dir)
    in
    let coord = Dist.Coordinator.create ~dlog router in
    let shard = Dist.Router.shard router in
    let accounts =
      Array.init shards (fun i ->
          let sh = shard i in
          Aobj.create ~name:(Dist.Shard.obj_name sh "account") ~trace:(Dist.Shard.ring sh)
            ?wal:(Option.map (fun l -> (l, Adt.Account.codec)) (Dist.Shard.wal sh))
            ~op_label:Adt.Account.op_label ~conflict ())
    in
    let mgrs = Array.init shards (fun i -> Dist.Shard.mgr (shard i)) in
    Array.iteri (fun i acc -> seed_balance mgrs.(i) acc) accounts;
    { w; mgrs; accounts; router = Some router; coord = Some coord; dlog = Some dlog; dir = Some dir }

let close sys =
  Option.iter Dist.Decision_log.close sys.dlog;
  Option.iter Dist.Router.close sys.router

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)

(* A transaction belongs to the timed slice [t_start, t_end) when it
   returned inside it. *)
type window = { t_start : int; t_end : int; traced : bool }

(* What one domain saw in one episode.  Only its owner writes it; the
   main domain reads it after joining the domain. *)
type tally = {
  lat : Hist.t; (* transactions that returned inside the slice *)
  mutable attempted : int; (* every transaction sent, warm-up included *)
  mutable failed : int;
  mutable committed : int;
  mutable first_error : string option;
  mutable covered_ns : int; (* run-span time inside the slice *)
  mutable longest_ns : int;
  (* traced episodes only *)
  invoke : Hist.t;
  self : Hist.t; (* Manager.run span minus its invoke spans *)
  local : Hist.t; (* Manager.run span, durable workload *)
  cross : Hist.t; (* cross-shard Coordinator.run span *)
  stable : Hist.t;
  mutable child : int; (* invoke time inside the current run *)
}

let tally () =
  {
    lat = Hist.create ();
    attempted = 0;
    failed = 0;
    committed = 0;
    first_error = None;
    covered_ns = 0;
    longest_ns = 0;
    invoke = Hist.create ();
    self = Hist.create ();
    local = Hist.create ();
    cross = Hist.create ();
    stable = Hist.create ();
    child = 0;
  }

type worker = {
  d : int;
  mutable seq : int; (* next input index *)
  net : int array; (* per account: net balance change of committed transactions *)
  tl : tally;
}

let invoke tl ~traced acc t op =
  if not traced then Aobj.invoke acc t op
  else begin
    let t0 = now () in
    let finish () =
      let dt = now () - t0 in
      Hist.add tl.invoke dt;
      tl.child <- tl.child + dt
    in
    match Aobj.invoke acc t op with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let delta op r =
  match (op, r) with
  | Adt.Account.Credit a, _ -> a
  | Adt.Account.Debit a, Adt.Account.Ok -> -a
  | Adt.Account.Debit _, Adt.Account.Overdraft | Adt.Account.Post _, _ -> 0

(* Run one transaction to commit; [`Local] or [`Cross] says which entry
   point ran it.  Raises whatever the runtime raised. *)
let exec sys wk ~traced txn =
  let tl = wk.tl in
  match txn with
  | Gen.Local ops ->
    let a = account_of sys wk.d in
    let acc = sys.accounts.(a) in
    let net =
      Mgr.run (mgr_of sys wk.d) (fun t ->
          Array.fold_left (fun n op -> n + delta op (invoke tl ~traced acc t op)) 0 ops)
    in
    wk.net.(a) <- wk.net.(a) + net;
    `Local
  | Gen.Transfer amount ->
    let coord = Option.get sys.coord and router = Option.get sys.router in
    let h = home wk.d in
    let p = (h + 1) mod shards in
    let moved =
      Dist.Coordinator.run coord (fun ctx ->
          let bh = Dist.Coordinator.branch ctx (Dist.Router.shard router h) in
          let bp = Dist.Coordinator.branch ctx (Dist.Router.shard router p) in
          match invoke tl ~traced sys.accounts.(h) bh (Adt.Account.Debit amount) with
          | Adt.Account.Ok ->
            ignore (invoke tl ~traced sys.accounts.(p) bp (Adt.Account.Credit amount));
            amount
          | Adt.Account.Overdraft -> 0)
    in
    wk.net.(h) <- wk.net.(h) - moved;
    wk.net.(p) <- wk.net.(p) + moved;
    `Cross

let run_window sys wk win =
  let tl = wk.tl in
  while now () < win.t_end do
    let txn = Gen.txn sys.w ~seed:!seed ~domain:wk.d ~seq:wk.seq in
    wk.seq <- wk.seq + 1;
    tl.child <- 0;
    let t0 = now () in
    let outcome = try Ok (exec sys wk ~traced:win.traced txn) with e -> Error e in
    let t1 = now () in
    tl.attempted <- tl.attempted + 1;
    tl.longest_ns <- max tl.longest_ns (t1 - t0);
    match outcome with
    | Error e ->
      tl.failed <- tl.failed + 1;
      if tl.first_error = None then tl.first_error <- Some (Printexc.to_string e)
    | Ok kind ->
      tl.committed <- tl.committed + 1;
      tl.covered_ns <- tl.covered_ns + max 0 (min t1 win.t_end - max t0 win.t_start);
      if t1 >= win.t_start && t1 < win.t_end then begin
        let span = t1 - t0 in
        Hist.add tl.lat span;
        if win.traced then begin
          (match kind with
          | `Local ->
            Hist.add tl.self (span - tl.child);
            if sys.w = Gen.Durable_sharded then Hist.add tl.local span
          | `Cross -> Hist.add tl.cross span);
          if wk.seq mod stable_every = 0 then begin
            let a = now () in
            ignore (Mgr.stable_time (mgr_of sys wk.d) : int);
            Hist.add tl.stable (now () - a)
          end
        end
      end
  done

(* Worker 0 runs on the main domain and the others on spawned ones: an
   idle main domain would still have to join every stop-the-world minor
   collection through its backup thread, which then waits for a CPU the
   workers keep busy — on 2 cores that cost a third of the throughput
   and made the latency bimodal.  Each worker allocates its own state,
   so the fields two domains bump on every transaction never share a
   cache line.  A spawned worker reports ready, waits for the window,
   and returns its state when the window ends. *)
type crew = {
  sys : sys;
  m : Mutex.t;
  c : Condition.t;
  mutable ready : int;
  mutable go : window option;
  mutable doms : worker Domain.t array;
  seq0 : int;
}

let new_worker sys ~d ~seq =
  { d; seq; net = Array.make (Array.length sys.accounts) 0; tl = tally () }

let worker_main sys crew ~d ~seq =
  let wk = new_worker sys ~d ~seq in
  Mutex.lock crew.m;
  crew.ready <- crew.ready + 1;
  Condition.broadcast crew.c;
  while crew.go = None do
    Condition.wait crew.c crew.m
  done;
  let win = Option.get crew.go in
  Mutex.unlock crew.m;
  run_window sys wk win;
  wk

let spawn sys seqs =
  let crew =
    { sys; m = Mutex.create (); c = Condition.create (); ready = 0; go = None; doms = [||];
      seq0 = seqs.(0) }
  in
  crew.doms <-
    Array.init (domains - 1) (fun i ->
        let d = i + 1 in
        Domain.spawn (fun () -> worker_main sys crew ~d ~seq:seqs.(d)));
  Mutex.lock crew.m;
  while crew.ready < domains - 1 do
    Condition.wait crew.c crew.m
  done;
  Mutex.unlock crew.m;
  crew

(* Release the workers into a warm-up and one timed slice; returns their
   states once every worker has stopped. *)
let run_crew crew ~traced =
  let t_start = now () + int_of_float (warmup_s () *. 1e9) in
  let win = { t_start; t_end = t_start + int_of_float (slice_s () *. 1e9); traced } in
  Mutex.lock crew.m;
  crew.go <- Some win;
  Condition.broadcast crew.c;
  Mutex.unlock crew.m;
  let wk0 = new_worker crew.sys ~d:0 ~seq:crew.seq0 in
  run_window crew.sys wk0 win;
  (win, Array.append [| wk0 |] (Array.map Domain.join crew.doms))

(* ------------------------------------------------------------------ *)
(* Layer counters, sampled around a traced episode                     *)

let sample sys =
  let objs = Array.map Aobj.stats sys.accounts in
  let obj f = Array.fold_left (fun a s -> a + f s) 0 objs in
  let wals =
    match sys.router with
    | None -> []
    | Some r -> List.filter_map Dist.Shard.wal (List.init shards (Dist.Router.shard r))
  in
  let wal f = List.fold_left (fun a l -> a + f l) 0 wals in
  let rings = match sys.router with None -> [||] | Some r -> Dist.Router.rings r in
  let coord f = match sys.coord with None -> 0 | Some c -> f (Dist.Coordinator.stats c) in
  let sched = Runtime.Sched.stats () in
  [
    ("obj.conflicts", obj (fun s -> s.Aobj.conflicts));
    ("obj.blocked", obj (fun s -> s.Aobj.blocked));
    ("obj.commits", obj (fun s -> s.Aobj.commits));
    ("obj.forgotten", obj (fun s -> s.Aobj.forgotten));
    ("mgr.started", Array.fold_left (fun a m -> a + (Mgr.stats m).Mgr.started) 0 sys.mgrs);
    ("coord.attempts", coord (fun s -> s.Dist.Coordinator.c_attempts));
    ("coord.cross_commits", coord (fun s -> s.Dist.Coordinator.c_cross_commits));
    ("coord.aborts", coord (fun s -> s.Dist.Coordinator.c_aborts));
    ("sched.parks", sched.Runtime.Sched.parks);
    ("sched.wakes", sched.Runtime.Sched.wakes);
    ("sched.steals", sched.Runtime.Sched.steals);
    ("sched.timeouts", sched.Runtime.Sched.timeouts);
    ("wal.fsyncs", wal Wal.Log.fsyncs);
    ("wal.lsn", wal Wal.Log.appended_lsn);
    ( "dlog.fsyncs",
      match sys.dlog with None -> 0 | Some d -> Wal.Log.fsyncs (Dist.Decision_log.log d) );
    ( "trace.cursor",
      Array.fold_left (fun a r -> a + Obs.Trace.cursor r) (Obs.Trace.cursor Obs.Trace.global) rings
    );
  ]

let combine f a b = List.map2 (fun (k, x) (_, y) -> (k, f x y)) a b
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let balance acc = match Aobj.committed_states acc with [ b ] -> Some b | _ -> None

(* Failures, empty when every output is right.  Runs after the workers
   stopped; closes the durable system's logs. *)
let check sys workers =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let exp = Array.make (Array.length sys.accounts) Gen.initial_balance in
  Array.iter (fun wk -> Array.iteri (fun i n -> exp.(i) <- exp.(i) + n) wk.net) workers;
  let total = Array.fold_left ( + ) 0 exp + if !wrong_total then 1 else 0 in
  let mem = Array.map balance sys.accounts in
  Array.iteri
    (fun i b ->
      match b with
      | Some b when b = exp.(i) -> ()
      | Some b -> fail "account %d: committed balance %d, expected %d" i b exp.(i)
      | None -> fail "account %d: committed state is not a single balance" i)
    mem;
  let sum_of bs = Array.fold_left (fun a b -> a + Option.value ~default:0 b) 0 bs in
  (match sys.w with
  | Gen.Inmem_private | Gen.Inmem_shared ->
    let s = Mgr.stats sys.mgrs.(0) in
    if s.Mgr.started <> s.Mgr.committed + s.Mgr.aborted then
      fail "manager: started %d <> committed %d + aborted %d" s.Mgr.started s.Mgr.committed
        s.Mgr.aborted;
    if sum_of mem <> total then fail "total balance %d, expected %d" (sum_of mem) total
  | Gen.Durable_sharded ->
    let dir = Option.get sys.dir in
    close sys;
    let decisions = Dist.Decision_log.read (Dist.Shard.decision_file dir) in
    let decided g = List.assoc_opt g decisions in
    let recovered =
      Array.init shards (fun i ->
          let records, _tail = Wal.Log.read (Dist.Shard.wal_file ~dir i) in
          let patched, _ = Wal.Recover.resolve ~decided records in
          match R.recover ~obj:(Aobj.name sys.accounts.(i)) patched with
          | Error e ->
            fail "shard %d: recovery failed: %s" i e;
            None
          | Ok { R.states = [ b ]; _ } ->
            if Some b <> mem.(i) then
              fail "shard %d: recovered balance %d, in memory %s" i b
                (Option.fold ~none:"?" ~some:string_of_int mem.(i));
            Some b
          | Ok _ ->
            fail "shard %d: recovered state is not a single balance" i;
            None)
    in
    if sum_of recovered <> total then
      fail "total recovered balance %d, expected %d (transfers must conserve it)"
        (sum_of recovered) total);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Episodes                                                            *)

type episode = {
  setup_s : float; (* from nothing to workers ready to send *)
  win : window;
  tls : tally list;
  lat : Hist.t; (* all domains *)
  heap_mb : float; (* major heap when the workers stopped *)
  failures : string list;
  counters : (string * int) list; (* traced: layer counter deltas *)
}

let run_episode w ~base ~k ~traced ~seqs ~agg =
  (* Reclaim the previous episode's system first: the heap this episode
     ends with and the slice's collector work then depend on its own
     transactions, not on where the last major cycle happened to stop. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let sys = build w ~dir:(Filename.concat base (Printf.sprintf "episode%d" k)) in
  let crew = spawn sys seqs in
  let setup_s = Unix.gettimeofday () -. t0 in
  let c0 = sample sys in
  let flight =
    if traced && sys.w = Gen.Durable_sharded then
      Some (Obs.Flight.start ~observer:(Obs.Profile.feed agg) ())
    else None
  in
  let win, workers = run_crew crew ~traced in
  let heap_mb = mb (Gc.quick_stat ()).Gc.heap_words in
  Option.iter
    (fun f ->
      Obs.Flight.stop f;
      Obs.Flight.set_level 0)
    flight;
  let counters = combine ( - ) (sample sys) c0 in
  Array.iter (fun wk -> seqs.(wk.d) <- wk.seq) workers;
  let failures = check sys workers in
  Option.iter rm_rf sys.dir;
  let tls = Array.to_list (Array.map (fun wk -> wk.tl) workers) in
  let lat = Hist.merge (List.map (fun (tl : tally) -> tl.lat) tls) in
  let ms x = float_of_int x /. 1e6 in
  Printf.printf
    "# episode %d%s: setup %.3f ms; commits per domain %s; %d in the slice, p50 %.1f us, p99 \
     %.1f us; longest transaction %.3f ms\n\
     %!"
    k
    (if traced then " traced" else "")
    (setup_s *. 1e3)
    (String.concat "/" (List.map (fun tl -> string_of_int tl.committed) tls))
    (Hist.count lat) (Hist.quantile lat 0.5 /. 1e3) (Hist.quantile lat 0.99 /. 1e3)
    (ms (List.fold_left (fun a tl -> max a tl.longest_ns) 0 tls));
  {
    setup_s;
    win;
    tls;
    lat;
    heap_mb;
    failures = List.map (Printf.sprintf "episode %d: %s" k) failures;
    counters;
  }

(* Throughput and latency pool the slices of all episodes, so an
   episode that fell into a different contention regime moves the
   result by its share of the samples instead of flipping a median. *)
type summary = {
  tput : float; (* committed txn/s over the timed slices *)
  p50_us : float;
  p99_us : float;
  samples : int;
  min_samples : int;
  setup : float;
  heap : float; (* median over episodes *)
  commits_all : int; (* warm-up included *)
  attempted : int;
  failed : int;
  first_error : string option;
  covered_ns : int;
  window_ns : int; (* worker time inside the slices *)
}

let summarize eps =
  let len e = e.win.t_end - e.win.t_start in
  let counts = List.map (fun e -> Hist.count e.lat) eps in
  let tls = List.concat_map (fun e -> e.tls) eps in
  let sum f = List.fold_left (fun a (tl : tally) -> a + f tl) 0 tls in
  let lat = Hist.merge (List.map (fun e -> e.lat) eps) in
  let slices_ns = List.fold_left (fun a e -> a + len e) 0 eps in
  {
    tput = float_of_int (Hist.count lat) /. (float_of_int slices_ns /. 1e9);
    p50_us = Hist.quantile lat 0.5 /. 1e3;
    p99_us = Hist.quantile lat 0.99 /. 1e3;
    samples = List.fold_left ( + ) 0 counts;
    min_samples = List.fold_left min max_int counts;
    setup = Hist.median_of (List.map (fun e -> e.setup_s) eps);
    heap = Hist.median_of (List.map (fun e -> e.heap_mb) eps);
    commits_all = sum (fun tl -> tl.committed);
    attempted = sum (fun tl -> tl.attempted);
    failed = sum (fun tl -> tl.failed);
    first_error = List.find_map (fun (tl : tally) -> tl.first_error) tls;
    covered_ns = sum (fun tl -> tl.covered_ns);
    window_ns = domains * slices_ns;
  }

(* ------------------------------------------------------------------ *)
(* Compacted-machine replay: each workload's generated transactions,
   single-threaded, through [Hybrid.Compacted.Make (Adt.Account)]. *)

let replay w =
  let m = ref (C.create ~conflict:Adt.Account.conflict_hybrid) in
  let choose = Hist.create () and step = Hist.create () in
  let clock = ref 0 in
  let timed_step ev =
    let a = now () in
    (match C.step !m ev with
    | Ok m' -> m := m'
    | Error _ -> failwith "replay: the machine refused an input event");
    Hist.add step (now () - a)
  in
  let run q ops =
    Array.iter
      (fun i ->
        timed_step (C.H.Invoke (q, i));
        let a = now () in
        match C.choose_response !m q with
        | Ok (_, m') ->
          Hist.add choose (now () - a);
          m := m'
        | Error _ -> failwith "replay: a serial transaction was refused")
      ops;
    incr clock;
    timed_step (C.H.Commit (q, !clock))
  in
  run (Model.Txn.make 0) [| Adt.Account.Credit Gen.initial_balance |];
  for seq = 0 to replay_txns - 1 do
    for d = 0 to domains - 1 do
      let ops =
        match Gen.txn w ~seed:!seed ~domain:d ~seq with
        | Gen.Local ops -> ops
        | Gen.Transfer a -> [| Adt.Account.Debit a; Adt.Account.Credit a |]
      in
      run (Model.Txn.make (1 + (seq * domains) + d)) ops
    done
  done;
  (choose, step)

(* ------------------------------------------------------------------ *)
(* Host facts                                                          *)

(* The mount (type, device, mount point) holding [path]: the longest
   mount-point prefix of its real path in /proc/mounts. *)
let filesystem path =
  match (Unix.realpath path, In_channel.with_open_text "/proc/mounts" In_channel.input_all) with
  | exception _ -> "unknown"
  | real, text -> (
    let under mnt = mnt = "/" || real = mnt || String.starts_with ~prefix:(mnt ^ "/") real in
    let best =
      List.fold_left
        (fun best line ->
          match String.split_on_char ' ' line with
          | dev :: mnt :: typ :: _ when under mnt -> (
            match best with
            | Some (m, _, _) when String.length m >= String.length mnt -> best
            | _ -> Some (mnt, dev, typ))
          | _ -> best)
        None (String.split_on_char '\n' text)
    in
    match best with
    | Some (mnt, dev, typ) -> Printf.sprintf "%s (%s on %s)" typ dev mnt
    | None -> "unknown")

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.); unit_; note }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let print_metric m = Printf.printf "metric %-34s %16.6f %-13s %s\n" m.name m.value m.unit_ m.note

let print_result ~correct ~attempted ~failed metrics =
  List.iter print_metric metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string m.name) m.value
          (json_string m.unit_))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let end_to_end s =
  let lat_note =
    Printf.sprintf "%d samples over %d episodes, >= %d per episode" s.samples episodes
      s.min_samples
  in
  [
    metric "throughput_txn_s" "txn/s" s.tput
      ~note:(Printf.sprintf "%d commits in %d timed slices" s.samples episodes);
    metric "txn_p50_us" "us" s.p50_us ~note:lat_note;
    metric "txn_p99_us" "us" s.p99_us ~note:lat_note;
    metric "setup_s" "s" s.setup ~note:(Printf.sprintf "median of %d set-ups" episodes);
    metric "peak_heap_mb" "MB" s.heap
      ~note:
        (Printf.sprintf "median of %d episodes' major heap as the workers stop; process top %.1f MB"
           episodes
           (mb (Gc.quick_stat ()).Gc.top_heap_words));
  ]

let us h q = Hist.quantile h q /. 1e3

let per_layer ~untraced ~traced eps ~profile ~replayed:(choose, step) =
  let commits = traced.commits_all in
  let tls = List.concat_map (fun e -> e.tls) eps in
  let merge f = Hist.merge (List.map f tls) in
  let invoke = merge (fun tl -> tl.invoke) and self = merge (fun tl -> tl.self) in
  let local = merge (fun tl -> tl.local) and cross = merge (fun tl -> tl.cross) in
  let stable = merge (fun tl -> tl.stable) in
  let n h = Printf.sprintf "%d samples" (Hist.count h) in
  let counters = List.fold_left (fun a e -> combine ( + ) a e.counters) (List.hd eps).counters (List.tl eps) in
  let c name = List.assoc name counters in
  let per_commit x = ratio x commits in
  let phase name =
    match profile with
    | None -> (0., "no flight recorder on this workload")
    | Some (r : Obs.Profile.report) ->
      let st = List.assoc name r.Obs.Profile.r_phases in
      ( st.Obs.Profile.st_p50 *. 1e6,
        Printf.sprintf "flight phase, %d spans" st.Obs.Profile.st_count )
  in
  let fsync_h = Obs.Metrics.histogram "wal.fsync_latency" in
  let batch_h = Obs.Metrics.histogram "wal.fsync_batch" in
  let n_fsync = Printf.sprintf "%d fsyncs, this host's disk" (Obs.Metrics.count fsync_h) in
  let sync_wait, sync_note = phase "sync_wait" in
  let prepare, prepare_note = phase "prepare" in
  let decide, decide_note = phase "decide" in
  let cross_commits = c "coord.cross_commits" in
  [
    metric "compacted.choose_us" "us" (us choose 0.5) ~note:(n choose ^ ", single-threaded replay");
    metric "compacted.step_us" "us" (us step 0.5) ~note:(n step ^ ", Invoke and Commit");
    metric "atomic_obj.invoke_p50_us" "us" (us invoke 0.5) ~note:(n invoke);
    metric "atomic_obj.invoke_p99_us" "us" (us invoke 0.99) ~note:(n invoke);
    metric "atomic_obj.conflicts_per_commit" "count/commit" (per_commit (c "obj.conflicts"));
    metric "atomic_obj.blocked_per_commit" "count/commit" (per_commit (c "obj.blocked"));
    metric "atomic_obj.forgotten_share" "share"
      (ratio (c "obj.forgotten") (c "obj.commits"))
      ~note:"forgotten / object commits";
    metric "manager.self_p50_us" "us" (us self 0.5) ~note:(n self ^ ", run span minus invokes");
    metric "manager.attempts_per_commit" "count/commit"
      (per_commit (c "mgr.started" + c "coord.attempts"));
    metric "manager.stable_time_ns" "ns" (Hist.quantile stable 0.5)
      ~note:(Printf.sprintf "p50, %s, one per %d txns" (n stable) stable_every);
    metric "sched.parks_per_commit" "count/commit" (per_commit (c "sched.parks"));
    metric "sched.wakes_per_park" "count/park" (ratio (c "sched.wakes") (c "sched.parks"));
    metric "sched.timeouts_per_park" "count/park" (ratio (c "sched.timeouts") (c "sched.parks"));
    metric "sched.steals_per_wake" "count/wake" (ratio (c "sched.steals") (c "sched.wakes"));
    metric "wal.fsyncs_per_commit" "count/commit" (per_commit (c "wal.fsyncs")) ~note:"shard logs";
    metric "wal.records_per_commit" "count/commit" (per_commit (c "wal.lsn")) ~note:"shard logs";
    metric "wal.batch_mean" "records/fsync"
      (if Obs.Metrics.count batch_h = 0 then 0.
       else Obs.Metrics.sum batch_h /. float_of_int (Obs.Metrics.count batch_h))
      ~note:(Printf.sprintf "%d sync rounds, all logs" (Obs.Metrics.count batch_h));
    metric "wal.fsync_p50_us" "us" (Obs.Metrics.quantile fsync_h 0.5 *. 1e6) ~note:n_fsync;
    metric "wal.fsync_p99_us" "us" (Obs.Metrics.quantile fsync_h 0.99 *. 1e6) ~note:n_fsync;
    metric "wal.sync_wait_p50_us" "us" sync_wait ~note:sync_note;
    metric "wal.bytes_per_commit" "B/commit"
      (per_commit (Obs.Metrics.value (Obs.Metrics.counter "wal.bytes")))
      ~note:"all logs";
    metric "coordinator.cross_p50_us" "us" (us cross 0.5) ~note:(n cross);
    metric "coordinator.cross_p99_us" "us" (us cross 0.99) ~note:(n cross);
    metric "coordinator.local_p50_us" "us" (us local 0.5) ~note:(n local);
    metric "coordinator.prepare_p50_us" "us" prepare ~note:prepare_note;
    metric "coordinator.decide_p50_us" "us" decide ~note:decide_note;
    metric "coordinator.aborts_per_cross" "count/cross" (ratio (c "coord.aborts") cross_commits)
      ~note:(Printf.sprintf "%d cross commits" cross_commits);
    metric "decision_log.fsyncs_per_cross" "count/cross" (ratio (c "dlog.fsyncs") cross_commits);
    metric "obs.trace_events_per_commit" "count/commit" (per_commit (c "trace.cursor"));
    metric "obs.tracing_overhead" "share"
      (if untraced.tput = 0. then 0. else 1. -. (traced.tput /. untraced.tput))
      ~note:
        (Printf.sprintf "1 - traced/untraced throughput (%.0f / %.0f txn/s)" traced.tput
           untraced.tput);
    metric "gap_share" "share"
      (1. -. ratio traced.covered_ns traced.window_ns)
      ~note:"1 - run-span time / worker time in the traced slices";
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let () =
  Arg.parse spec (fun a -> fail_usage ("unexpected argument " ^ a)) "perfbench [options]";
  let w =
    match Gen.of_name !workload with
    | Some w -> w
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !seconds <= 0. then fail_usage "--seconds must be positive";
  if !dump_inputs > 0 then begin
    for d = 0 to domains - 1 do
      for seq = 0 to !dump_inputs - 1 do
        Format.printf "d%d s%d %a@." d seq Gen.pp_txn (Gen.txn w ~seed:!seed ~domain:d ~seq)
      done
    done;
    exit 0
  end;
  let durable = w = Gen.Durable_sharded in
  Obs.Control.set_enabled durable;
  Obs.Flight.set_level 0;
  let base = Filename.concat !work_dir (string_of_int (Unix.getpid ())) in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" (Gen.name w) !seed
    !seconds !trace;
  Printf.printf "# host commit=%s nproc=%s recommended_domain_count=%d ocaml=%s\n" !commit
    !nproc (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf
    "# load: closed loop, %d worker domains, no think time; %d episodes, each a fresh set-up, \
     %gs warm-up and a %gs timed slice\n"
    domains episodes (warmup_s ()) (slice_s ());
  if durable then begin
    mkdir_p base;
    Printf.printf "# wal: dir=%s fs=%s fsync=on group_commit=on decision_log=forced\n" base
      (filesystem base)
  end
  else print_endline "# wal: off";
  Printf.printf "# obs: control=%s trace_rings=%s\n%!"
    (if durable then "on" else "off")
    (if durable then "per-shard" else "none");
  let seqs = Array.make domains 0 in
  let agg = Obs.Profile.create () in
  let run ~traced =
    List.init episodes (fun k -> run_episode w ~base ~k ~traced ~seqs ~agg)
  in
  let untraced_eps = run ~traced:false in
  let untraced = summarize untraced_eps in
  let traced_eps =
    if !trace = 0 then []
    else begin
      Obs.Metrics.reset ();
      run ~traced:true
    end
  in
  (try rm_rf base with _ -> ());
  (try Unix.rmdir !work_dir with _ -> ());
  let all = untraced_eps @ traced_eps in
  let failures = List.concat_map (fun e -> e.failures) all in
  let e2e = end_to_end untraced in
  let metrics, totals =
    match traced_eps with
    | [] -> (e2e, untraced)
    | _ ->
      List.iter (fun m -> Printf.printf "# end-to-end %s %.6f %s\n" m.name m.value m.unit_) e2e;
      let traced = summarize traced_eps in
      let profile = if durable then Some (Obs.Profile.report agg) else None in
      let metrics = per_layer ~untraced ~traced traced_eps ~profile ~replayed:(replay w) in
      (metrics, summarize all)
  in
  (* Text only: it reads 0 on every workload, so it has no relative
     bound; the JSON carries it as failed / attempted. *)
  print_metric
    (metric "failed_share" "share"
       (ratio totals.failed totals.attempted)
       ~note:(Printf.sprintf "%d of %d transactions raised" totals.failed totals.attempted));
  Option.iter (fun e -> Printf.printf "# first failure: %s\n" e) totals.first_error;
  List.iter (fun f -> Printf.printf "# CHECK FAILED: %s\n" f) failures;
  if failures = [] then
    Printf.printf "# checks passed on every episode: balances = initial + net of committed \
                   transactions%s\n"
      (if durable then
         "; every shard recovered from its log to the in-memory balance; total conserved"
       else "; manager started = committed + aborted");
  let correct = failures = [] in
  print_result ~correct ~attempted:totals.attempted ~failed:totals.failed metrics;
  exit (if correct then 0 else 1)
