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

let params_of ?(seed = 0) (scale : Driver.scale) ops =
  Printf.sprintf "%d domains x %d txns x %d ops/txn, think %.0fus, seed %d" scale.domains
    scale.txns ops scale.think_us seed

module Qobj = Runtime.Atomic_obj.Make (Adt.Fifo_queue)
module Sobj = Runtime.Atomic_obj.Make (Adt.Semiqueue)
module Aobj = Runtime.Atomic_obj.Make (Adt.Account)
module Dobj = Runtime.Atomic_obj.Make (Adt.Directory)

(* Pair the manager's log (if any) with the object's codec, the shape
   [Atomic_obj.create ?wal] wants. *)
let durable mgr codec = Option.map (fun w -> (w, codec)) (Runtime.Manager.wal mgr)
module Qprof = Conflict_profile.Make (Adt.Fifo_queue)
module Sprof = Conflict_profile.Make (Adt.Semiqueue)
module Aprof = Conflict_profile.Make (Adt.Account)
module Dprof = Conflict_profile.Make (Adt.Directory)

(* Run one relation variant of a workload and collect its row.  [stats]
   extracts the object counters after the run and [replay] replay-checks
   the traced run (objects differ per experiment, so they are created by
   [setup]).  The global trace ring is cleared {e before} [setup] so the
   replayed history includes the seeding transactions — without them the
   reconstructed dequeue/debit responses would be illegal. *)
let measure ?wal ~label ~conflict_prob ~scale ~setup () =
  let tracing = Obs.Control.enabled () in
  if tracing then Obs.Trace.clear Obs.Trace.global;
  let mgr = Runtime.Manager.create ?wal () in
  let body, stats, replay = setup mgr in
  let result = Driver.run scale ~mgr body in
  let conflicts, blocked = stats () in
  let window = if tracing then Obs.Trace.entries Obs.Trace.global else [] in
  (* A wrapped ring has lost the run's oldest invocations, so replaying
     its window would judge a history with holes.  The row still fails:
     nothing passes unaudited. *)
  let atomic =
    if not tracing then None
    else
      match Obs.Trace.dropped Obs.Trace.global with
      | 0 -> Some (replay ())
      | n ->
        Some
          (Error
             (Printf.sprintf "trace window lost: %d entries overwritten; replay not run" n))
  in
  {
    label;
    committed = result.Driver.committed;
    attempts = result.Driver.attempts;
    op_conflicts = conflicts;
    op_blocked = blocked;
    throughput = result.Driver.throughput;
    conflict_prob;
    atomic;
    attrib = (if tracing then Some (Obs.Attrib.of_entries window) else None);
    waitfor = (if tracing then Some (Obs.Waitfor.analyze window) else None);
    window;
  }

(* ------------------------------------------------------------------ *)
(* EXP-QUEUE(a): enqueue-only                                          *)

let queue_relations =
  [
    ("hybrid (fig 4-2)", Adt.Fifo_queue.conflict_hybrid);
    ("fig 4-3 / commutativity", Adt.Fifo_queue.conflict_commutativity);
    ("2PL read/write", Adt.Fifo_queue.conflict_rw);
  ]

let enq_only_weights (i, _) =
  match i with Adt.Fifo_queue.Enq _ -> 1. | Adt.Fifo_queue.Deq -> 0.

let exp_queue_enq ?(scale = Driver.default_scale) ?(seed = 0) ?wal () =
  let ops = 4 in
  let rows =
    List.map
      (fun (label, conflict) ->
        measure ?wal ~label
          ~conflict_prob:(Qprof.op_conflict_probability ~weights:enq_only_weights conflict)
          ~scale
          ~setup:(fun mgr ->
            let q =
              Qobj.create
                ?wal:(durable mgr Adt.Fifo_queue.codec)
                ~conflict ~op_label:Adt.Fifo_queue.op_label ()
            in
            let body ~domain ~seq txn =
              for k = 0 to ops - 1 do
                let v = 1 + (Driver.pseudo ~seed domain seq k mod 2) in
                ignore (Qobj.invoke q txn (Adt.Fifo_queue.Enq v));
                Driver.think scale.think_us
              done
            in
            let stats () =
              let s = Qobj.stats q in
              (s.Qobj.conflicts, s.Qobj.blocked)
            in
            (body, stats, fun () -> Qobj.replay_check q))
          ())
      queue_relations
  in
  {
    id = "EXP-QUEUE-ENQ";
    title = "concurrent enqueuers on one FIFO queue";
    params = params_of ~seed scale ops;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* EXP-QUEUE(b): mixed producers/consumers                             *)

let mixed_weights _ = 1.

(* One row of the producer/consumer workload on a FIFO queue. *)
let queue_pc_row ?wal ~scale ~seed ~ops label conflict =
  measure ?wal ~label
    ~conflict_prob:(Qprof.op_conflict_probability ~weights:mixed_weights conflict)
    ~scale
    ~setup:(fun mgr ->
      let q =
        Qobj.create
          ?wal:(durable mgr Adt.Fifo_queue.codec)
          ~conflict ~op_label:Adt.Fifo_queue.op_label ()
      in
      let body =
        Driver.producer_consumer scale ~seed ~ops
          ~produce:(fun txn v -> ignore (Qobj.invoke q txn (Adt.Fifo_queue.Enq v)))
          ~consume:(fun txn -> ignore (Qobj.invoke q txn Adt.Fifo_queue.Deq))
          mgr
      in
      let stats () =
        let s = Qobj.stats q in
        (s.Qobj.conflicts, s.Qobj.blocked)
      in
      (body, stats, fun () -> Qobj.replay_check q))
    ()

let exp_queue_mixed ?(scale = Driver.default_scale) ?(seed = 0) ?wal () =
  let ops = 3 in
  {
    id = "EXP-QUEUE-MIXED";
    title = "producers vs consumers on one FIFO queue (incomparable minimal relations)";
    params = params_of ~seed scale ops;
    rows =
      List.map
        (fun (label, conflict) -> queue_pc_row ?wal ~scale ~seed ~ops label conflict)
        queue_relations;
  }

(* ------------------------------------------------------------------ *)
(* EXP-ACCOUNT                                                         *)

let account_relations =
  [
    ("hybrid (fig 4-5)", Adt.Account.conflict_hybrid);
    ("commutativity (fig 7-1)", Adt.Account.conflict_commutativity);
    ("2PL read/write", Adt.Account.conflict_rw);
  ]

let account_weights (i, r) =
  (* Roughly the workload mix: credits and debits dominate, posts are
     occasional, overdrafts rare. *)
  match (i, r) with
  | Adt.Account.Credit _, _ -> 4.
  | Adt.Account.Post _, _ -> 1.
  | Adt.Account.Debit _, Adt.Account.Ok -> 4.
  | Adt.Account.Debit _, Adt.Account.Overdraft -> 0.1

let exp_account ?(scale = Driver.default_scale) ?(seed = 0) ?wal () =
  let ops = 3 in
  let rows =
    List.map
      (fun (label, conflict) ->
        measure ?wal ~label
          ~conflict_prob:(Aprof.op_conflict_probability ~weights:account_weights conflict)
          ~scale
          ~setup:(fun mgr ->
            let acc =
              Aobj.create
                ?wal:(durable mgr Adt.Account.codec)
                ~conflict ~op_label:Adt.Account.op_label ()
            in
            (* Large seed balance so overdrafts stay rare. *)
            Runtime.Manager.run mgr (fun txn ->
                ignore (Aobj.invoke acc txn (Adt.Account.Credit 1_000_000)));
            (* Posts are kept rare (a handful per domain): in the exact
               integer model each Post 1 doubles the balance, so a
               post-heavy mix would overflow native ints and wrap the
               balance negative — breaking the monotonicity that
               Figure 4-5's conflicts rely on (see DESIGN.md). *)
            let body ~domain ~seq txn =
              if seq mod 25 = 2 * domain then begin
                ignore (Aobj.invoke acc txn (Adt.Account.Post 1));
                Driver.think scale.think_us
              end
              else if (domain + seq) mod 2 = 0 then
                for k = 0 to ops - 1 do
                  ignore
                    (Aobj.invoke acc txn
                       (Adt.Account.Credit (1 + (Driver.pseudo ~seed domain seq k mod 9))));
                  Driver.think scale.think_us
                done
              else
                for k = 0 to ops - 1 do
                  ignore
                    (Aobj.invoke acc txn
                       (Adt.Account.Debit (1 + (Driver.pseudo ~seed domain seq k mod 9))));
                  Driver.think scale.think_us
                done
            in
            let stats () =
              let s = Aobj.stats acc in
              (s.Aobj.conflicts, s.Aobj.blocked)
            in
            (body, stats, fun () -> Aobj.replay_check acc))
          ())
      account_relations
  in
  {
    id = "EXP-ACCOUNT";
    title = "credit/post/debit mix on one account (result-dependent locking)";
    params = params_of ~seed scale ops;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* EXP-SEMIQ: SemiQueue vs FIFO Queue on the same workload             *)

let rem_weights (i, _) =
  match i with Adt.Semiqueue.Ins _ -> 1. | Adt.Semiqueue.Rem -> 1.

let exp_semiqueue ?(scale = Driver.default_scale) ?(seed = 0) ?wal () =
  let ops = 3 in
  let semiqueue_row label conflict =
    measure ?wal ~label
      ~conflict_prob:(Sprof.op_conflict_probability ~weights:rem_weights conflict)
      ~scale
      ~setup:(fun mgr ->
        let sq =
          Sobj.create
            ?wal:(durable mgr Adt.Semiqueue.codec)
            ~conflict ~op_label:Adt.Semiqueue.op_label ()
        in
        let body =
          Driver.producer_consumer scale ~seed ~ops
            ~produce:(fun txn v -> ignore (Sobj.invoke sq txn (Adt.Semiqueue.Ins v)))
            ~consume:(fun txn -> ignore (Sobj.invoke sq txn Adt.Semiqueue.Rem))
            mgr
        in
        let stats () =
          let s = Sobj.stats sq in
          (s.Sobj.conflicts, s.Sobj.blocked)
        in
        (body, stats, fun () -> Sobj.replay_check sq))
      ()
  in
  let queue_row = queue_pc_row ?wal ~scale ~seed ~ops in
  let rows =
    [
      semiqueue_row "SemiQueue hybrid (fig 4-4)" Adt.Semiqueue.conflict_hybrid;
      queue_row "Queue hybrid (fig 4-2)" Adt.Fifo_queue.conflict_hybrid;
      queue_row "Queue fig 4-3" Adt.Fifo_queue.conflict_fig_4_3;
    ]
  in
  {
    id = "EXP-SEMIQ";
    title = "nondeterminism buys concurrency: SemiQueue vs FIFO Queue";
    params = params_of ~seed scale ops;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* EXP-DIRECTORY: locking granularity on a key-partitioned Directory   *)

(* ~40% Insert / 30% Remove / 30% Member over a Zipf-drawn key.  The
   offset in the mix hash decorrelates it from the key draw. *)
let directory_mix ~seed ~keys ~domain ~seq k =
  let key = Conflict_profile.Keys.draw keys ~seed ~domain ~seq ~k in
  match Driver.pseudo ~seed domain seq (k + 11) mod 10 with
  | 0 | 1 | 2 | 3 -> Adt.Directory.Insert key
  | 4 | 5 | 6 -> Adt.Directory.Remove key
  | _ -> Adt.Directory.Member key

let exp_directory ?(scale = Driver.default_scale) ?(seed = 0) ?(key_skew = 0.) ?(keys = 64)
    ?(cells = 8) ?wal () =
  let ops = 4 in
  let kt = Conflict_profile.Keys.make ~skew:key_skew ~n:keys in
  (* The cell-blind machine fires on label pairs regardless of key; the
     key-aware rows additionally need the two draws to collide, so their
     analytic probability is the blind one scaled by Σp². *)
  let blind_prob =
    Dprof.op_conflict_probability ~weights:Dprof.uniform Adt.Directory.conflict_whole_object
  in
  let keyed_prob = Conflict_profile.Keys.collision kt *. blind_prob in
  let body invoke ~domain ~seq txn =
    for k = 0 to ops - 1 do
      invoke txn (directory_mix ~seed ~keys:kt ~domain ~seq k);
      Driver.think scale.think_us
    done
  in
  let whole_row label conflict prob =
    measure ?wal ~label ~conflict_prob:prob ~scale
      ~setup:(fun mgr ->
        let d =
          Dobj.create
            ?wal:(durable mgr Adt.Directory.codec)
            ~conflict ~op_label:Adt.Directory.op_label ()
        in
        let stats () =
          let s = Dobj.stats d in
          (s.Dobj.conflicts, s.Dobj.blocked)
        in
        (body (fun txn i -> ignore (Dobj.invoke d txn i)), stats,
         fun () -> Dobj.replay_check d))
      ()
  in
  let celled_row label =
    measure ?wal ~label ~conflict_prob:keyed_prob ~scale
      ~setup:(fun mgr ->
        let d = Part.Pdir.create ?wal:(durable mgr Adt.Directory.codec) ~cells () in
        let stats () =
          let s = Part.Pdir.stats d in
          (s.Part.Pdir.O.conflicts, s.Part.Pdir.O.blocked)
        in
        (body (fun txn i -> ignore (Part.Pdir.invoke d txn i)), stats,
         fun () -> Part.Pdir.replay_check d))
      ()
  in
  let rows =
    [
      whole_row "whole-object (cell-blind)" Adt.Directory.conflict_whole_object blind_prob;
      whole_row "whole-object (key-aware)" Adt.Directory.conflict_hybrid keyed_prob;
      celled_row (Printf.sprintf "cell-locked (%d cells)" cells);
    ]
  in
  {
    id = "EXP-DIRECTORY";
    title = "locking granularity: cell-blind vs key-aware vs cell-locked Directory";
    params =
      Printf.sprintf "%s, %d keys, skew %.2f, %d cells" (params_of ~seed scale ops) keys
        key_skew cells;
    rows;
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
  [
    ("queue", fun () -> exp_queue_enq ?scale ?seed ?wal ());
    ("queue-mixed", fun () -> exp_queue_mixed ?scale ?seed ?wal ());
    ("account", fun () -> exp_account ?scale ?seed ?wal ());
    ("semiqueue", fun () -> exp_semiqueue ?scale ?seed ?wal ());
    ("directory", fun () -> exp_directory ?scale ?seed ?key_skew ?cells ?wal ());
  ]
