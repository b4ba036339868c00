module Manager = Runtime.Manager
module Sched = Runtime.Sched

(* A worker's operation is done; the handler charges it [think] units. *)
type _ Effect.t += Think : unit Effect.t

let think = 100

(* One virtual unit is 1 µs, so [Retry.backstop]'s 1 ms is 1000 units. *)
let units seconds = int_of_float (seconds *. 1e6)

(* Virtual time past the last progress after which a run fails. *)
let patience = 1_000_000

type result = {
  committed : int;
  restarts : int;
  max_restarts : int;
  conflicts : int;
  blocked : int;
  timeouts : int;
  makespan : int;
  busy : int;
}

let concurrency r =
  if r.makespan = 0 then 1. else float_of_int r.busy /. float_of_int r.makespan

(* A suspended fiber: due at virtual time [at] (a think timer, or a
   park's backstop deadline), or — when it is parked — as soon as its
   ticket reads signalled. *)
type waiting = {
  at : int;
  ticket : Sched.ticket option;
  k : (unit, unit) Effect.Deep.continuation;
}

let signalled w = match w.ticket with Some t -> Sched.signalled t | None -> false

(* The earliest deadline, the earliest suspended among equals. *)
let earliest waiting =
  List.fold_left
    (fun best w -> match best with Some b when b.at <= w.at -> best | _ -> Some w)
    None waiting

(* Run [fibers] on the calling domain, each until its first effect in
   array order, then one at a time until all return.  Woken parks
   resume first, at the current virtual time, in the order their
   wake-ups were delivered: a fiber runs until it suspends, and it
   registers a waiter only to park on it or cancel it, so the parks
   signalled while it ran were all woken by its first release of the
   object, whose [Sched.notify] delivers the newest registration first
   (the bucket is a stack) — reverse park order.  With none woken, the
   earliest deadline advances the clock.  [progress] is the virtual
   time of the last finished operation or commit.  On an exception the
   fibers still suspended are unwound (their transactions abort) before
   it propagates. *)
let schedule ~now ~progress fibers =
  let waiting = ref [] (* in suspension order *) and woken = ref [] (* in delivery order *) in
  let suspend w = waiting := !waiting @ [ w ] in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Think ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                progress := !now;
                suspend { at = !now + think; ticket = None; k })
          | Sched.Park (ticket, timeout) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                suspend { at = !now + units timeout; ticket = Some ticket; k })
          | _ -> None);
    }
  in
  let collect_woken () =
    let signalled, rest = List.partition signalled !waiting in
    waiting := rest;
    woken := !woken @ List.rev signalled
  in
  let rec loop () =
    collect_woken ();
    match !woken with
    | w :: rest ->
      woken := rest;
      Effect.Deep.continue w.k ();
      loop ()
    | [] -> (
      match earliest !waiting with
      | None -> ()
      | Some w ->
        if w.at - !progress > patience then failwith "Det_sim: no progress (blocked workload?)";
        waiting := List.filter (fun w' -> w' != w) !waiting;
        now := w.at;
        Effect.Deep.continue w.k ();
        loop ())
  in
  try
    Array.iter
      (fun f ->
        Effect.Deep.match_with f () handler;
        collect_woken ())
      fibers;
    loop ()
  with e ->
    List.iter
      (fun w -> try Effect.Deep.discontinue w.k Exit with _ -> ())
      (!woken @ !waiting);
    raise e

module Make (A : Spec.Adt_sig.S) = struct
  module O = Runtime.Atomic_obj.Make (A)

  type script = A.inv list list

  type nonrec result = result = {
    committed : int;
    restarts : int;
    max_restarts : int;
    conflicts : int;
    blocked : int;
    timeouts : int;
    makespan : int;
    busy : int;
  }

  let concurrency = concurrency

  let run ?(prefill = []) ~conflict scripts =
    let mgr = Manager.create () in
    let obj = O.create ~conflict () in
    if prefill <> [] then
      Manager.run mgr (fun txn ->
          List.iter
            (fun i ->
              match O.try_invoke obj txn i with
              | Ok _ -> ()
              | Error _ -> failwith "Det_sim: prefill operation refused")
            prefill);
    let m0 = Manager.stats mgr and o0 = O.stats obj and s0 = Sched.stats () in
    let now = ref 0 and progress = ref 0 and makespan = ref 0 and max_restarts = ref 0 in
    let worker script () =
      List.iter
        (fun ops ->
          let attempts = ref 0 in
          Manager.run mgr (fun txn ->
              incr attempts;
              List.iter
                (fun i ->
                  ignore (O.invoke obj txn i : A.res);
                  Effect.perform Think)
                ops);
          max_restarts := max !max_restarts (!attempts - 1);
          progress := !now;
          makespan := !now)
        script
    in
    Sched.simulate (fun () -> schedule ~now ~progress (Array.map worker scripts));
    let m = Manager.stats mgr and o = O.stats obj in
    let ops = Array.fold_left (List.fold_left (fun n t -> n + List.length t)) 0 scripts in
    {
      committed = m.committed - m0.committed;
      restarts = m.aborted - m0.aborted;
      max_restarts = !max_restarts;
      conflicts = o.conflicts - o0.conflicts;
      blocked = o.blocked - o0.blocked;
      timeouts = (Sched.stats ()).timeouts - s0.timeouts;
      makespan = !makespan;
      busy = think * ops;
    }
end
