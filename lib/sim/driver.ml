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
  let s0 = Runtime.Manager.stats mgr in
  let _, wall =
    loop scale (fun ~domain ~seq -> Runtime.Manager.run mgr (body ~domain ~seq))
  in
  let s = Runtime.Manager.stats mgr in
  let committed = s.committed - s0.committed in
  {
    committed;
    attempts = s.started - s0.started;
    wall_seconds = wall;
    throughput = float_of_int committed /. wall;
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

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
