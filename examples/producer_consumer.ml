(* Producer/consumer pipelines: FIFO Queue vs SemiQueue.

   Run with: dune exec examples/producer_consumer.exe

   The paper's motivating observation (Section 4.1): under the hybrid
   protocol, concurrent producers can enqueue on a FIFO queue even though
   enqueues do not commute — the dequeue order of concurrently enqueued
   items is decided by commit timestamps.  Dequeueing, however, is a
   serial bottleneck under the FIFO specification (Figure 4-2).  The
   SemiQueue (Figure 4-4) weakens removal to "some present item", so
   concurrent consumers also proceed in parallel.

   This example runs the same producer/consumer pipeline over both types
   and prints the conflict counts: the FIFO queue's consumers collide,
   the SemiQueue's do not.  It also demonstrates [`Blocked] handling: a
   consumer that finds the queue empty waits until a producer commits
   (Deq/Rem are partial operations).  The consumers' quotas add up to
   what the producers make, so every wait ends. *)

module Fifo = Adt.Fifo_queue
module Semi = Adt.Semiqueue
module FifoObj = Runtime.Atomic_obj.Make (Fifo)
module SemiObj = Runtime.Atomic_obj.Make (Semi)

let producers = 2
let consumers = 2
let items_per_producer = 150

let run_fifo () =
  let mgr = Runtime.Manager.create () in
  let q = FifoObj.create ~name:"fifo" ~conflict:Fifo.conflict_hybrid () in
  let produce d =
    Domain.spawn (fun () ->
        for k = 0 to items_per_producer - 1 do
          Runtime.Manager.run mgr (fun txn ->
              ignore (FifoObj.invoke q txn (Fifo.Enq ((1000 * d) + k))))
        done)
  in
  let consumed = Array.make consumers [] in
  let consume c =
    Domain.spawn (fun () ->
        let quota = items_per_producer * producers / consumers in
        for _ = 1 to quota do
          Runtime.Manager.run mgr (fun txn ->
              (* waits while empty: Deq is a partial operation *)
              match FifoObj.invoke q txn Fifo.Deq with
              | Fifo.Val v -> consumed.(c) <- v :: consumed.(c)
              | Fifo.Ok -> assert false)
        done)
  in
  let ps = List.init producers produce in
  let cs = List.init consumers consume in
  List.iter Domain.join ps;
  List.iter Domain.join cs;
  let st = FifoObj.stats q in
  Printf.printf "FIFO queue:  %4d items moved, %5d lock conflicts, %4d blocked-on-empty\n"
    (producers * items_per_producer) st.FifoObj.conflicts st.FifoObj.blocked;
  (* Each consumer's dequeues carry increasing commit timestamps, and
     timestamp-ordered dequeues follow queue order, so within any one
     consumer the items of any one producer must appear in FIFO order.
     (Across consumers no ordering is implied.) *)
  Array.iteri
    (fun c stream ->
      let seen = List.rev stream in
      let ok =
        List.for_all
          (fun d ->
            let mine = List.filter (fun v -> v / 1000 = d) seen in
            mine = List.sort compare mine)
          (List.init producers Fun.id)
      in
      Printf.printf "  consumer %d saw every producer's items in FIFO order: %b\n" c ok)
    consumed

let run_semi () =
  let mgr = Runtime.Manager.create () in
  let q = SemiObj.create ~name:"semi" ~conflict:Semi.conflict_hybrid () in
  let produce d =
    Domain.spawn (fun () ->
        for k = 0 to items_per_producer - 1 do
          Runtime.Manager.run mgr (fun txn ->
              ignore (SemiObj.invoke q txn (Semi.Ins ((1000 * d) + k))))
        done)
  in
  let consume _ =
    Domain.spawn (fun () ->
        let quota = items_per_producer * producers / consumers in
        for _ = 1 to quota do
          Runtime.Manager.run mgr (fun txn ->
              match SemiObj.invoke q txn Semi.Rem with
              | Semi.Val _ -> ()
              | Semi.Ok -> assert false)
        done)
  in
  let ps = List.init producers produce in
  let cs = List.init consumers consume in
  List.iter Domain.join ps;
  List.iter Domain.join cs;
  let st = SemiObj.stats q in
  Printf.printf "SemiQueue:   %4d items moved, %5d lock conflicts, %4d blocked-on-empty\n"
    (producers * items_per_producer) st.SemiObj.conflicts st.SemiObj.blocked

let () =
  run_fifo ();
  run_semi ();
  print_endline "note: the SemiQueue's nondeterministic Rem lets concurrent consumers";
  print_endline "      pick different items instead of fighting over the unique front."
