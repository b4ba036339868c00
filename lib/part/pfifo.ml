(* Head/tail-striped FIFO queue.

   A queue's state cannot be sharded into independent machines the way
   a directory's can — a Deq cell with its own state would see an empty
   queue and block (or worse, answer) independently of what the Enq
   cell holds.  The partitionable thing is the LOCKING: Enq works at
   the tail, Deq at the head, and under Figure 4-3 the two ends never
   conflict.  So Pfifo keeps one state machine and installs the
   cell-restricted relation [Spec.Partition.restrict] derives from the
   head/tail assignment (Adt.Fifo_queue.cell_of_inv) — lock striping
   rather than state sharding.

   The choice of base relation is exactly the paper's Figure 4-2 vs
   4-3 fork, now with a partition-soundness reading:
   - Figure 4-3 relates Enq-Enq and Deq-Deq only; both pairs are
     same-cell, the restriction drops nothing, and striping is sound
     ([validate] certifies it).
   - Figure 4-2 relates Deq to Enq; that pair is cross-cell, the
     restriction drops it, and the result is NOT a dependency relation
     — a Deq response can be invalidated by an Enq it no longer waits
     for.  [validate] returns the Definition-3 counterexample; the
     partition tests assert both outcomes. *)

module A = Adt.Fifo_queue
module P = Spec.Partition.Make (Adt.Fifo_queue)
module O = Runtime.Atomic_obj.Make (Adt.Fifo_queue)

type t = { obj : O.t }

let stripe_label op =
  let stripe =
    match P.cell_of_op op with
    | Some c when c = A.cell_head -> "head"
    | Some _ -> "tail"
    | None -> "whole"
  in
  stripe ^ ":" ^ A.op_label op

let create ?name ?record ?trace ?wal ?(conflict = A.conflict_fig_4_3) () =
  {
    obj =
      O.create ?name ?record ?trace ?wal ~op_label:stripe_label
        ~conflict:(P.restrict conflict) ();
  }

let try_invoke t txn i = O.try_invoke t.obj txn i
let invoke t txn i = O.invoke t.obj txn i
let committed_states t = O.committed_states t.obj
let name t = O.name t.obj
let stats t = O.stats t.obj
let history t = O.history t.obj
let replay_check ?online t = O.replay_check ?online t.obj
let register_introspection t = O.register_introspection t.obj

let validate ~depth conflict = P.check ~depth conflict
