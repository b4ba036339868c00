module Qobj = Runtime.Atomic_obj.Make (Adt.Fifo_queue)
module Sobj = Runtime.Atomic_obj.Make (Adt.Semiqueue)
module Aobj = Runtime.Atomic_obj.Make (Adt.Account)

type config = {
  domains : int;
  think_us : float;
  seed : int;
  epoch_capacity : int;
}

let default_config = { domains = 4; think_us = 100.; seed = 0; epoch_capacity = 1 lsl 15 }

type epoch = {
  ring : Obs.Trace.t;
  queue : Qobj.t;
  semiq : Sobj.t;
  account : Aobj.t;
  next_val : int Atomic.t; (* unique enqueue values, see mli *)
  last_deq_txn : int Atomic.t; (* committed txn that dequeued; -1 if none *)
}

type t = {
  config : config;
  mgr : Runtime.Manager.t;
  current : epoch Atomic.t;
  (* The epoch retired by the previous [rotate]: possibly still
     receiving entries from transactions that were in flight at the
     swap.  One full rotation later it is quiescent and auditable. *)
  mutable draining : epoch option;
  epoch_count : int Atomic.t;
  workers : Driver.workers;
}

let seed_values = 16

let new_epoch mgr config =
  let ring = Obs.Trace.create ~capacity:config.epoch_capacity () in
  let queue =
    Qobj.create ~name:"live/queue" ~trace:ring
      ~conflict:Adt.Fifo_queue.conflict_hybrid ~op_label:Adt.Fifo_queue.op_label ()
  in
  let semiq =
    Sobj.create ~name:"live/semiq" ~trace:ring
      ~conflict:Adt.Semiqueue.conflict_hybrid ~op_label:Adt.Semiqueue.op_label ()
  in
  let account =
    Aobj.create ~name:"live/account" ~trace:ring
      ~conflict:Adt.Account.conflict_hybrid ~op_label:Adt.Account.op_label ()
  in
  Qobj.register_introspection queue;
  Sobj.register_introspection semiq;
  Aobj.register_introspection account;
  (* Seed so consumers never block on an empty container, and keep a
     large balance so debits rarely overdraft.  Seeding runs through
     the manager, so the epoch's ring contains it — replay sees every
     value's origin. *)
  Runtime.Manager.run mgr (fun txn ->
      for v = 1 to seed_values do
        ignore (Qobj.invoke queue txn (Adt.Fifo_queue.Enq v));
        ignore (Sobj.invoke semiq txn (Adt.Semiqueue.Ins (seed_values + v)))
      done;
      ignore (Aobj.invoke account txn (Adt.Account.Credit 1_000_000)));
  {
    ring;
    queue;
    semiq;
    account;
    next_val = Atomic.make ((2 * seed_values) + 1);
    last_deq_txn = Atomic.make (-1);
  }

let run_one mgr e ~seed ~domain ~seq =
  let h = Driver.pseudo ~seed domain seq 0 in
  match h mod 3 with
  | 0 ->
    (* Queue: always enqueue a fresh unique value, dequeue every other
       time — net producer, so [Deq] stays enabled. *)
    let did_deq = ref false in
    let tid = ref (-1) in
    Runtime.Manager.run mgr (fun txn ->
        tid := Runtime.Txn_rt.id txn;
        did_deq := false;
        let v = Atomic.fetch_and_add e.next_val 1 in
        ignore (Qobj.invoke e.queue txn (Adt.Fifo_queue.Enq v));
        if h land 1 = 0 then begin
          ignore (Qobj.invoke e.queue txn Adt.Fifo_queue.Deq);
          did_deq := true
        end);
    if !did_deq then Atomic.set e.last_deq_txn !tid
  | 1 ->
    Runtime.Manager.run mgr (fun txn ->
        let amount = 1 + (h mod 9) in
        if h land 1 = 0 then
          ignore (Aobj.invoke e.account txn (Adt.Account.Credit amount))
        else ignore (Aobj.invoke e.account txn (Adt.Account.Debit amount)))
  | _ ->
    Runtime.Manager.run mgr (fun txn ->
        let v = Atomic.fetch_and_add e.next_val 1 in
        ignore (Sobj.invoke e.semiq txn (Adt.Semiqueue.Ins v));
        if h land 1 = 0 then ignore (Sobj.invoke e.semiq txn Adt.Semiqueue.Rem))

let register_cycle_audit t =
  (* Wait-for cycles are checked on the *current* ring: unlike replay,
     the cycle check tolerates a partial window (an edge it cannot see
     cannot create a false cycle). *)
  Obs.Sampler.register_audit ~name:"waitfor/live" (fun () ->
      Experiments.waitfor_verdict
        (Obs.Waitfor.analyze (Obs.Trace.entries (Atomic.get t.current).ring)))

let start ?wal config =
  let mgr = Runtime.Manager.create ?wal () in
  Runtime.Manager.register_introspection ~name:"live/manager" mgr;
  let current = Atomic.make (new_epoch mgr config) in
  let workers =
    Driver.start ~domains:config.domains (fun ~domain ~seq ->
        run_one mgr (Atomic.get current) ~seed:config.seed ~domain ~seq;
        Driver.think config.think_us)
  in
  let t =
    { config; mgr; current; draining = None; epoch_count = Atomic.make 1; workers }
  in
  register_cycle_audit t;
  t

let register_replay_audits e =
  ignore (Qobj.register_audit ~name:"replay/live/queue" e.queue);
  ignore (Sobj.register_audit ~name:"replay/live/semiq" e.semiq);
  ignore (Aobj.register_audit ~name:"replay/live/account" e.account)

let rotate t =
  let next = new_epoch t.mgr t.config in
  let old = Atomic.exchange t.current next in
  Atomic.incr t.epoch_count;
  (match t.draining with Some prev -> register_replay_audits prev | None -> ());
  t.draining <- Some old

let inject_violation t =
  let e = Atomic.get t.current in
  let tid = Atomic.get e.last_deq_txn in
  if tid < 0 then false
  else begin
    let obj = Qobj.key e.queue in
    let ops =
      List.filter_map
        (fun (en : Obs.Trace.entry) ->
          if en.obj = obj && en.txn = tid then
            match en.event with
            | Obs.Trace.Invoke _ | Obs.Trace.Respond _ -> Some en.event
            | _ -> None
          else None)
        (Obs.Trace.entries e.ring)
    in
    if ops = [] then false
    else begin
      (* Replay the victim's operations verbatim under a ghost id, then
         commit the ghost with a far-future timestamp: two committed
         dequeues of one unique value, serialized last — not hybrid
         atomic, by construction. *)
      let ghost = 900_000_000 + tid in
      List.iter (fun ev -> Obs.Trace.emit e.ring ~obj ~txn:ghost ev) ops;
      Obs.Trace.emit e.ring ~obj ~txn:ghost (Obs.Trace.Commit 1_073_741_823);
      true
    end
  end

let current_ring t = (Atomic.get t.current).ring
let manager t = t.mgr
let epochs t = Atomic.get t.epoch_count

let stop t = Driver.stop t.workers
