type row = {
  label : string;
  committed : int;
  restarts : int;
  conflicts : int;
  blocked : int;
  makespan : int;
  concurrency : float;
}

type table = { id : string; title : string; params : string; rows : row list }

let workers = 4
let txns_per_worker = 25

let pp_table ppf t =
  Format.fprintf ppf "== %s (deterministic): %s ==@.   (%s)@." t.id t.title t.params;
  Format.fprintf ppf "%-28s %9s %9s %10s %8s %10s %12s@." "relation" "committed"
    "restarts" "conflicts" "blocked" "makespan" "concurrency";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %9d %9d %10d %8d %10d %12.2f@." r.label r.committed
        r.restarts r.conflicts r.blocked r.makespan r.concurrency)
    t.rows

module DQ = Det_sim.Make (Adt.Fifo_queue)
module DS = Det_sim.Make (Adt.Semiqueue)
module DA = Det_sim.Make (Adt.Account)

let params = Printf.sprintf "%d workers x %d txns, virtual think 100" workers txns_per_worker

let row_q label (r : DQ.result) =
  {
    label;
    committed = r.DQ.committed;
    restarts = r.DQ.restarts;
    conflicts = r.DQ.conflicts;
    blocked = r.DQ.blocked;
    makespan = r.DQ.makespan;
    concurrency = DQ.concurrency r;
  }

let row_s label (r : DS.result) =
  {
    label;
    committed = r.DS.committed;
    restarts = r.DS.restarts;
    conflicts = r.DS.conflicts;
    blocked = r.DS.blocked;
    makespan = r.DS.makespan;
    concurrency = DS.concurrency r;
  }

let row_a label (r : DA.result) =
  {
    label;
    committed = r.DA.committed;
    restarts = r.DA.restarts;
    conflicts = r.DA.conflicts;
    blocked = r.DA.blocked;
    makespan = r.DA.makespan;
    concurrency = DA.concurrency r;
  }

(* ------------------------------------------------------------------ *)

let queue_relations =
  [
    ("hybrid (fig 4-2)", Adt.Fifo_queue.conflict_hybrid);
    ("fig 4-3 / commutativity", Adt.Fifo_queue.conflict_commutativity);
    ("2PL read/write", Adt.Fifo_queue.conflict_rw);
  ]

(* Operation [j] of worker [w]'s transaction [k] draws [1 + pseudo mod m]. *)
let value w k j m = 1 + (Driver.pseudo ~seed:0 w k j mod m)

(* The producer/consumer scripts: the first half of the workers consume,
   the rest produce. *)
let pc_scripts ~produce ~consume =
  Array.init workers (fun w ->
      List.init txns_per_worker (fun k ->
          List.init 3 (fun j -> if w < workers / 2 then consume else produce (value w k j 2))))

let queue_pc_scripts () =
  pc_scripts ~produce:(fun v -> Adt.Fifo_queue.Enq v) ~consume:Adt.Fifo_queue.Deq

let det_queue_enq () =
  let script w =
    List.init txns_per_worker (fun k ->
        List.init 4 (fun j -> Adt.Fifo_queue.Enq (value w k j 2)))
  in
  let scripts = Array.init workers script in
  let rows =
    List.map
      (fun (label, conflict) ->
        row_q label (DQ.run ~conflict scripts))
      queue_relations
  in
  { id = "EXP-QUEUE-ENQ"; title = "concurrent enqueuers"; params; rows }

let queue_prefill = List.init 300 (fun k -> Adt.Fifo_queue.Enq (1 + (k mod 2)))

let det_queue_mixed () =
  let scripts = queue_pc_scripts () in
  let rows =
    List.map
      (fun (label, conflict) -> row_q label (DQ.run ~prefill:queue_prefill ~conflict scripts))
      queue_relations
  in
  { id = "EXP-QUEUE-MIXED"; title = "producers vs consumers"; params; rows }

let det_account () =
  (* Posts appear a few times per worker (the totals stay far from
     native-int overflow: 24 doublings of the opening million) and run
     as 2-operation transactions so their serialization footprint under
     commutativity-based locking is visible. *)
  let script w =
    List.init txns_per_worker (fun k ->
        if k mod 12 = 3 * w then [ Adt.Account.Post 1; Adt.Account.Credit 1 ]
        else if (w + k) mod 2 = 0 then
          List.init 3 (fun j -> Adt.Account.Credit (value w k j 9))
        else List.init 3 (fun j -> Adt.Account.Debit (value w k j 9)))
  in
  let scripts = Array.init workers script in
  let rows =
    List.map
      (fun (label, conflict) ->
        row_a label (DA.run ~prefill:[ Adt.Account.Credit 1_000_000 ] ~conflict scripts))
      [
        ("hybrid (fig 4-5)", Adt.Account.conflict_hybrid);
        ("commutativity (fig 7-1)", Adt.Account.conflict_commutativity);
        ("2PL read/write", Adt.Account.conflict_rw);
      ]
  in
  { id = "EXP-ACCOUNT"; title = "credit/post/debit mix"; params; rows }

let det_semiqueue () =
  let semi_prefill = List.init 300 (fun k -> Adt.Semiqueue.Ins (1 + (k mod 2))) in
  let rows =
    [
      row_s "SemiQueue hybrid (fig 4-4)"
        (DS.run ~prefill:semi_prefill ~conflict:Adt.Semiqueue.conflict_hybrid
           (pc_scripts ~produce:(fun v -> Adt.Semiqueue.Ins v) ~consume:Adt.Semiqueue.Rem));
      row_q "Queue hybrid (fig 4-2)"
        (DQ.run ~prefill:queue_prefill ~conflict:Adt.Fifo_queue.conflict_hybrid
           (queue_pc_scripts ()));
      row_q "Queue fig 4-3"
        (DQ.run ~prefill:queue_prefill ~conflict:Adt.Fifo_queue.conflict_fig_4_3
           (queue_pc_scripts ()));
    ]
  in
  { id = "EXP-SEMIQ"; title = "SemiQueue vs FIFO Queue"; params; rows }

let by_id =
  [
    ("queue", det_queue_enq);
    ("queue-mixed", det_queue_mixed);
    ("account", det_account);
    ("semiqueue", det_semiqueue);
  ]

let all () = List.map (fun (_, run) -> run ()) by_id
