type row = {
  label : string;
  committed : int;
  attempts : int;
  op_conflicts : int;
  op_blocked : int;
  throughput : float;
  conflict_prob : float;
  atomic : (unit, string) result option;
  attrib : Obs.Attrib.t option;
  waitfor : Obs.Waitfor.report option;
  window : Obs.Trace.entry list;
}

type table = { id : string; title : string; params : string; rows : row list }

let pp_atomic ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some (Ok ()) -> Format.pp_print_string ppf "ok"
  | Some (Error e) -> Format.fprintf ppf "VIOLATION: %s" e

let pp_table ppf t =
  Format.fprintf ppf "== %s: %s ==@.   (%s)@." t.id t.title t.params;
  Format.fprintf ppf "%-28s %9s %9s %10s %9s %12s %13s  %s@." "relation" "committed"
    "attempts" "conflicts" "blocked" "txn/s" "P(conflict)" "atomic";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %9d %9d %10d %9d %12.0f %13.3f  %a@." r.label r.committed
        r.attempts r.op_conflicts r.op_blocked r.throughput r.conflict_prob pp_atomic
        r.atomic)
    t.rows

let violations tables =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun r ->
          match r.atomic with
          | Some (Error e) -> Some (t.id, r.label, e)
          | Some (Ok ()) | None -> None)
        t.rows)
    tables

let waitfor_verdict rep =
  if Obs.Waitfor.ok rep then Ok ()
  else
    Error
      (String.concat "; "
         (List.map
            (fun loop -> "cycle " ^ String.concat " -> " (List.map string_of_int loop))
            rep.Obs.Waitfor.cycles))

let waitfor_failures tables =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun r ->
          match Option.map waitfor_verdict r.waitfor with
          | Some (Error cycles) -> Some (t.id, r.label, cycles)
          | Some (Ok ()) | None -> None)
        t.rows)
    tables

let windows tables =
  List.concat_map (fun t -> List.concat_map (fun r -> r.window) t.rows) tables

let fired_mass r =
  match r.attrib with Some a -> Some (Obs.Attrib.total_refusals a) | None -> None

let label_contains r sub =
  let s = r.label and n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let pp_conflicts ppf t =
  Format.fprintf ppf "== %s: conflict attribution ==@." t.id;
  List.iter
    (fun r ->
      match r.attrib with
      | None -> Format.fprintf ppf "-- %s: (observability disabled)@." r.label
      | Some a ->
        Format.fprintf ppf "-- %s@." r.label;
        Obs.Attrib.pp ~top:8 ppf a;
        (match Obs.Attrib.holders a with
        | [] -> ()
        | top ->
          Format.fprintf ppf "  top holders:%s@."
            (String.concat ""
               (List.filteri (fun i _ -> i < 5) top
               |> List.map (fun (q, n) -> Printf.sprintf " T%d=%d" q n)))))
    t.rows;
  (* The empirical face of Theorem 28: the hybrid (dependency) relation
     is a subset of failure-to-commute, so on the same workload its
     fired-conflict mass should not exceed commutativity's.  Scheduling
     noise can perturb individual runs, hence a report, not an assert. *)
  let find sub = List.find_opt (fun r -> label_contains r sub && r.attrib <> None) t.rows in
  match (find "hybrid", find "commutativity") with
  | Some h, Some c -> (
    match (fired_mass h, fired_mass c) with
    | Some hm, Some cm ->
      let verdict =
        if hm <= cm then "yes"
        else if label_contains c "fig 4-3" then
          "NO (expected: fig 4-2 and fig 4-3 are incomparable minimal relations)"
        else "NO (scheduling noise; rerun larger)"
      in
      Format.fprintf ppf
        "   fired-conflict mass: %s = %d vs %s = %d -> dependency <= commutativity: %s@."
        h.label hm c.label cm verdict
    | _ -> ())
  | _ -> ()

let pp_waitfor ppf t =
  Format.fprintf ppf "== %s: wait-for audit ==@." t.id;
  List.iter
    (fun r ->
      match r.waitfor with
      | None -> Format.fprintf ppf "-- %s: (observability disabled)@." r.label
      | Some rep ->
        Format.fprintf ppf "-- %s@." r.label;
        Obs.Waitfor.pp ppf rep)
    t.rows

let params_of ~seed (scale : Driver.scale) (w : Workload.t) =
  Printf.sprintf "%d domains x %d txns x %d ops/txn, think %.0fus, seed %d%s" scale.domains
    scale.txns w.ops scale.think_us seed
    (if w.params = "" then "" else ", " ^ w.params)

(* Pair the manager's log (if any) with the object's codec, the shape
   [Atomic_obj.create ?wal] wants. *)
let durable mgr codec = Option.map (fun w -> (w, codec)) (Runtime.Manager.wal mgr)

(* A row's object as the runner uses it: invoke, the (conflicts,
   blocked) refusal counts, and the replay check of its traced run. *)
type 'i obj = {
  invoke : Runtime.Txn_rt.t -> 'i -> unit;
  refusals : unit -> int * int;
  replay : unit -> (unit, string) result;
}

let obj_of_target : type i r. Runtime.Manager.t -> (i, r) Workload.target -> i obj =
 fun mgr -> function
  | Workload.Whole (adt, conflict) ->
    let module A = (val adt) in
    let module O = Runtime.Atomic_obj.Make (A) in
    let o = O.create ?wal:(durable mgr A.codec) ~conflict ~op_label:A.op_label () in
    {
      invoke = (fun txn i -> ignore (O.invoke o txn i));
      refusals =
        (fun () ->
          let s = O.stats o in
          (s.conflicts, s.blocked));
      replay = (fun () -> O.replay_check o);
    }
  | Workload.Cells cells ->
    let d = Part.Pdir.create ?wal:(durable mgr Adt.Directory.codec) ~cells () in
    {
      invoke = (fun txn i -> ignore (Part.Pdir.invoke d txn i));
      refusals =
        (fun () ->
          let s = Part.Pdir.stats d in
          (s.conflicts, s.blocked));
      replay = (fun () -> Part.Pdir.replay_check d);
    }

(* Run one relation row and collect its table row.  The global trace
   ring is cleared {e before} the object is created so the replayed
   history includes the prefill transaction — without it the
   reconstructed dequeue/debit responses would be illegal. *)
let measure ?wal ~scale ~seed (Workload.Row r) =
  let tracing = Obs.Control.enabled () in
  if tracing then Obs.Trace.clear Obs.Trace.global;
  let mgr = Runtime.Manager.create ?wal () in
  let obj = obj_of_target mgr r.target in
  let result = Workload.drive scale ~seed ~mgr obj.invoke r.script in
  let conflicts, blocked = obj.refusals () in
  let window = if tracing then Obs.Trace.entries Obs.Trace.global else [] in
  (* A wrapped ring has lost the run's oldest invocations, so replaying
     its window would judge a history with holes.  The row still fails:
     nothing passes unaudited. *)
  let atomic =
    if not tracing then None
    else
      match Obs.Trace.dropped Obs.Trace.global with
      | 0 -> Some (obj.replay ())
      | n ->
        Some
          (Error
             (Printf.sprintf "trace window lost: %d entries overwritten; replay not run" n))
  in
  {
    label = r.label;
    committed = result.committed;
    attempts = result.attempts;
    op_conflicts = conflicts;
    op_blocked = blocked;
    throughput = result.throughput;
    conflict_prob = r.conflict_prob;
    atomic;
    attrib = (if tracing then Some (Obs.Attrib.of_entries window) else None);
    waitfor = (if tracing then Some (Obs.Waitfor.analyze window) else None);
    window;
  }

let run ?(scale = Driver.default_scale) ?(seed = 0) ?wal (w : Workload.t) =
  {
    id = w.id;
    title = w.title;
    params = params_of ~seed scale w;
    rows = List.map (measure ?wal ~scale ~seed) w.rows;
  }

(* The CI assertion behind the cell-locking claim: a lock manager blind
   to keys must fire at least [factor] times the conflict mass of the
   cell-locked machine on partitionable (low-skew) traffic.  Requires
   observability (fired-conflict mass comes from the trace window). *)
let partition_gate ?(factor = 5) t =
  let find sub = List.find_opt (fun r -> label_contains r sub) t.rows in
  match (find "cell-blind", find "cell-locked") with
  | Some blind, Some celled -> (
    match (fired_mass blind, fired_mass celled) with
    | Some bm, Some cm ->
      if bm > 0 && bm >= factor * max 1 cm then Ok (bm, cm)
      else
        Error
          (Printf.sprintf
             "partition gate failed: cell-blind fired-conflict mass %d is not >= %dx \
              cell-locked mass %d"
             bm factor cm)
    | _ ->
      Error "partition gate: fired-conflict mass unavailable (enable observability)")
  | _ -> Error "partition gate: table lacks cell-blind / cell-locked rows"

let by_id ?scale ?seed ?key_skew ?cells ?wal () =
  List.map
    (fun (id, w) -> (id, fun () -> run ?scale ?seed ?wal w))
    (Workload.paper @ [ ("directory", Workload.directory ?key_skew ?cells ()) ])
