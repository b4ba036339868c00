type row = {
  label : string;
  committed : int;
  restarts : int;
  max_restarts : int;
  conflicts : int;
  blocked : int;
  timeouts : int;
  makespan : int;
  concurrency : float;
}

type table = { id : string; title : string; params : string; rows : row list }

let workers = 4
let txns = 25

let pp_table ppf t =
  Format.fprintf ppf "== %s (deterministic): %s ==@.   (%s)@." t.id t.title t.params;
  Format.fprintf ppf "%-28s %9s %9s %7s %10s %8s %8s %10s %12s@." "relation" "committed"
    "restarts" "max/txn" "conflicts" "blocked" "timeouts" "makespan" "concurrency";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %9d %9d %7d %10d %8d %8d %10d %12.2f@." r.label r.committed
        r.restarts r.max_restarts r.conflicts r.blocked r.timeouts r.makespan r.concurrency)
    t.rows

let params ~seed =
  Printf.sprintf "%d workers x %d txns, virtual think 100 us%s" workers txns
    (if seed = 0 then "" else Printf.sprintf ", seed %d" seed)

let row ~seed (Workload.Row r) =
  match r.target with
  | Workload.Cells _ -> invalid_arg "Det_experiments: a cell-locked row runs on real domains"
  | Workload.Whole (adt, conflict) ->
    let module D = Det_sim.Make ((val adt)) in
    let s = r.script in
    let scripts =
      Array.init workers (fun worker -> List.init txns (s.txn ~seed ~workers ~worker))
    in
    let d = D.run ~prefill:(s.prefill ~workers ~txns) ~conflict scripts in
    {
      label = r.label;
      committed = d.committed;
      restarts = d.restarts;
      max_restarts = d.max_restarts;
      conflicts = d.conflicts;
      blocked = d.blocked;
      timeouts = d.timeouts;
      makespan = d.makespan;
      concurrency = Det_sim.concurrency d;
    }

let run ~seed (w : Workload.t) =
  { id = w.id; title = w.title; params = params ~seed; rows = List.map (row ~seed) w.rows }

let by_id ~seed = List.map (fun (id, w) -> (id, fun () -> run ~seed w)) Workload.paper
let all () = List.map (fun (_, w) -> run ~seed:0 w) Workload.paper
