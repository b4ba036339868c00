module Make (A : Spec.Adt_sig.S) = struct
  module C = Hybrid.Compacted.Make (A)
  module H = C.H

  type script = A.inv list list

  type config = {
    think : int;
    retry_quantum : int;
    restart_delay : int;
    max_attempts : int;
  }

  let default_config =
    { think = 100; retry_quantum = 20; restart_delay = 50; max_attempts = 1000 }

  type result = {
    committed : int;
    restarts : int;
    conflicts : int;
    blocked : int;
    makespan : int;
    busy : int;
  }

  let concurrency r =
    if r.makespan = 0 then 1. else float_of_int r.busy /. float_of_int r.makespan

  (* Per-worker cursor through its script. *)
  type worker = {
    script : A.inv list array;
    mutable txn_idx : int;
    mutable op_idx : int;
    mutable txn : Model.Txn.t; (* current attempt's identity *)
    mutable priority : int; (* first attempt's sequence number, stable *)
    mutable attempts : int;
    mutable done_ : bool;
  }

  module Events = Map.Make (struct
    type t = int * int (* virtual time, insertion sequence *)

    let compare = compare
  end)

  let run ?(config = default_config) ?(prefill = []) ~conflict scripts =
    let machine = ref (C.create ~conflict) in
    let txn_ids = ref 0 in
    let ts = ref 0 in
    let fresh_txn () =
      incr txn_ids;
      Model.Txn.make !txn_ids
    in
    (* commit the prefill as one instantaneous transaction *)
    if prefill <> [] then begin
      let q = fresh_txn () in
      List.iter
        (fun i ->
          match C.invoke_and_choose !machine q i with
          | Ok (_, m) -> machine := m
          | Error _ -> failwith "Det_sim: prefill operation refused")
        prefill;
      incr ts;
      match C.step !machine (H.Commit (q, !ts)) with
      | Ok m -> machine := m
      | Error _ -> assert false
    end;
    (* priorities of live transactions, for wait-die *)
    let priorities : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let workers =
      Array.map
        (fun script ->
          let txn = fresh_txn () in
          let w =
            {
              script = Array.of_list script;
              txn_idx = 0;
              op_idx = 0;
              txn;
              priority = Model.Txn.id txn;
              attempts = 1;
              done_ = Array.of_list script |> Array.length = 0;
            }
          in
          if not w.done_ then Hashtbl.replace priorities (Model.Txn.id txn) w.priority;
          w)
        scripts
    in
    let events = ref Events.empty in
    let event_seq = ref 0 in
    let schedule time wid =
      incr event_seq;
      events := Events.add (time, !event_seq) wid !events
    in
    Array.iteri (fun wid w -> if not w.done_ then schedule 0 wid) workers;
    let committed = ref 0 in
    let restarts = ref 0 in
    let conflicts = ref 0 in
    let blocked = ref 0 in
    let makespan = ref 0 in
    let busy = ref 0 in
    let last_progress = ref 0 in
    let apply event =
      match C.step !machine event with
      | Ok m -> machine := m
      | Error _ -> assert false
    in
    (* process one event: worker [wid] attempts its current step at [t] *)
    let step_worker t wid =
      let w = workers.(wid) in
      if not w.done_ then begin
        let ops = w.script.(w.txn_idx) in
        if w.op_idx >= List.length ops then begin
          (* commit the transaction *)
          incr ts;
          apply (H.Commit (w.txn, !ts));
          Hashtbl.remove priorities (Model.Txn.id w.txn);
          incr committed;
          busy := !busy + (config.think * List.length ops);
          makespan := max !makespan t;
          last_progress := t;
          w.txn_idx <- w.txn_idx + 1;
          w.op_idx <- 0;
          w.attempts <- 1;
          if w.txn_idx >= Array.length w.script then w.done_ <- true
          else begin
            let txn = fresh_txn () in
            w.txn <- txn;
            w.priority <- Model.Txn.id txn;
            Hashtbl.replace priorities (Model.Txn.id txn) w.priority;
            schedule t wid
          end
        end
        else begin
          let inv = List.nth ops w.op_idx in
          match C.invoke_and_choose !machine w.txn inv with
          | Ok (_, m) ->
            machine := m;
            last_progress := t;
            w.op_idx <- w.op_idx + 1;
            schedule (t + config.think) wid
          | Error (`Blocked, m) ->
            machine := m;
            incr blocked;
            schedule (t + config.retry_quantum) wid
          | Error (`Conflict holder, m) -> (
            machine := m;
            incr conflicts;
            let holder_priority =
              Option.bind holder (fun ci ->
                  Hashtbl.find_opt priorities (Model.Txn.id ci.C.c_holder))
            in
            match holder_priority with
            | Some hp when w.priority > hp ->
              (* wait-die: the younger transaction dies *)
              apply (H.Abort w.txn);
              Hashtbl.remove priorities (Model.Txn.id w.txn);
              incr restarts;
              w.attempts <- w.attempts + 1;
              if w.attempts > config.max_attempts then
                failwith "Det_sim: transaction exceeded max_attempts";
              w.op_idx <- 0;
              let txn = fresh_txn () in
              w.txn <- txn;
              Hashtbl.replace priorities (Model.Txn.id txn) w.priority;
              schedule (t + config.restart_delay) wid
            | Some _ | None -> schedule (t + config.retry_quantum) wid)
        end
      end
    in
    let rec loop () =
      match Events.min_binding_opt !events with
      | None -> ()
      | Some (((t, _) as key), wid) ->
        events := Events.remove key !events;
        if t - !last_progress > 1_000_000 then
          failwith "Det_sim: no progress (blocked workload?)";
        step_worker t wid;
        loop ()
    in
    loop ();
    {
      committed = !committed;
      restarts = !restarts;
      conflicts = !conflicts;
      blocked = !blocked;
      makespan = !makespan;
      busy = !busy;
    }
end
