type scale = { domains : int; txns : int; think_us : float }

let default_scale = { domains = 4; txns = 100; think_us = 100. }
let quick_scale = { domains = 2; txns = 20; think_us = 10. }

type result = {
  committed : int;
  attempts : int;
  wall_seconds : float;
  throughput : float;
}

let think us =
  (* Sleep rather than busy-wait: think time models work (e.g. I/O) a
     transaction does while holding locks.  Sleeping releases the core,
     so admitted concurrency shows up as overlapping think times even on
     machines with few cores — with a busy-wait, N domains on one core
     serialize regardless of the locking protocol and all relations
     measure alike. *)
  if us > 0. then Unix.sleepf (us *. 1e-6)

(* Deterministic value sequence, decorrelated across (domain, seq, k);
   [seed] shifts the whole sequence so reruns can vary the workload
   reproducibly ([seed = 0] reproduces the historical values). *)
let pseudo ~seed d seq k =
  ((seed * 15485863) + (d * 7919) + (seq * 104729) + (k * 1299709)) land 0x3fffffff

let loop scale step =
  let t0 = Unix.gettimeofday () in
  let worker domain =
    Domain.spawn (fun () -> Array.init scale.txns (fun seq -> step ~domain ~seq))
  in
  let results = List.init scale.domains worker |> List.map Domain.join |> Array.of_list in
  (results, Unix.gettimeofday () -. t0)

let run scale ~mgr body =
  let _, wall =
    loop scale (fun ~domain ~seq -> Runtime.Manager.run mgr (body ~domain ~seq))
  in
  let stats = Runtime.Manager.stats mgr in
  {
    committed = stats.Runtime.Manager.committed;
    attempts = stats.Runtime.Manager.started;
    wall_seconds = wall;
    throughput = float_of_int stats.Runtime.Manager.committed /. wall;
  }

type workers = { stop_flag : bool Atomic.t; mutable spawned : unit Domain.t list }

let start ~domains step =
  let stop_flag = Atomic.make false in
  let worker domain () =
    let seq = ref 0 in
    while not (Atomic.get stop_flag) do
      step ~domain ~seq:!seq;
      incr seq
    done
  in
  { stop_flag; spawned = List.init domains (fun d -> Domain.spawn (worker d)) }

let stop w =
  if not (Atomic.exchange w.stop_flag true) then begin
    List.iter Domain.join w.spawned;
    w.spawned <- []
  end

(* Commit [f txn k] for [k = 0 .. n - 1], 50 per transaction, so the
   horizon can fold each batch into the version as seeding goes. *)
let seed_with mgr ~n f =
  let remaining = ref n in
  while !remaining > 0 do
    let batch = min 50 !remaining in
    Runtime.Manager.run mgr (fun txn ->
        for k = 0 to batch - 1 do
          f txn (n - !remaining + k)
        done);
    remaining := !remaining - batch
  done

let producer_consumer (scale : scale) ~seed ~ops ~produce ~consume mgr =
  let consumers = scale.domains / 2 in
  seed_with mgr ~n:(consumers * scale.txns * ops) (fun txn k -> produce txn (1 + (k mod 2)));
  fun ~domain ~seq txn ->
    for k = 0 to ops - 1 do
      if domain >= consumers then produce txn (1 + (pseudo ~seed domain seq k mod 2))
      else consume txn;
      think scale.think_us
    done

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
