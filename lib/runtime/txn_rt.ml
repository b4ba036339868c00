type participant = {
  name : string;
  on_commit : Model.Timestamp.t -> unit;
  on_abort : unit -> unit;
}

(* The status and the participant list share one atomic cell, so the
   decision to commit or abort closes the list in the same step: a
   participant registered before the decision is notified of it, and a
   registration after an abort raises instead of joining a list nobody
   will walk again. *)
type state =
  | Active of (int * participant) list (* newest first *)
  | Committed of Model.Timestamp.t
  | Aborted

type t = {
  id : int;
  priority : int;
  model : Model.Txn.t;
  state : state Atomic.t;
  releases_anchor : bool; (* a restart: its commit releases the transaction's anchor *)
}

exception Abort_requested of string

let counter = Atomic.make 0
let object_key_counter = Atomic.make 0
let fresh_object_key () = Atomic.fetch_and_add object_key_counter 1

(* Registry of live transactions' priorities, readable by any domain
   (objects resolve lock holders by id).  Entries are refcounted: the
   shard branches of one global transaction share its id, and the id
   must stay resolvable until the {e last} branch completes — wait-die
   reads [None] as "holder finished", which would be wrong while a
   sibling branch still holds locks.

   Lock-free: registration/deregistration runs on {e every} transaction,
   so a mutex here would put one lock on the otherwise mutex-free hot
   path (see Lockstat).  Entries live in a fixed array of atomics
   indexed by [id mod cap]; the cells hold immutable tuples, so
   compare-and-set on physical equality suffices (a fresh allocation per
   update rules out ABA).  Ids come from one monotone counter, so two
   {e live} ids only collide in a cell when more than [cap] transactions
   are simultaneously live (or a coordinator holds an old [~id] across
   that many draws) — that rare loser takes the mutex-guarded overflow
   table.  [overflow_count] is maintained so lookups skip the table —
   and its lock — entirely when it is empty.

   The cells' atomics are allocated in index order, several to a cache
   line, so the cell of an id is a permutation of [id mod cap] that
   moves its low [spread_bits] bits to the top: consecutive ids — the
   live transactions of different domains — sit [cap lsr spread_bits]
   cells apart, and registering one does not write the line another
   domain is writing.  Two ids still share a cell exactly when they are
   congruent mod [cap]. *)
let cap = 8192 (* power of two *)
let spread_bits = 3

let cell_index id =
  let stride = cap lsr spread_bits in
  ((id land ((1 lsl spread_bits) - 1)) * stride) lor ((id lsr spread_bits) land (stride - 1))

type entry = { e_id : int; e_priority : int; e_refs : int }

let cells : entry option Atomic.t array = Array.init cap (fun _ -> Atomic.make None)
let overflow_mutex = Mutex.create ()
let overflow : (int, int * int) Hashtbl.t = Hashtbl.create 8 (* id -> (priority, refs) *)
let overflow_count = Atomic.make 0

let with_overflow f =
  Lockstat.count_registry ();
  Mutex.lock overflow_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock overflow_mutex) f

let overflow_register id priority =
  with_overflow (fun () ->
      match Hashtbl.find_opt overflow id with
      | Some (p, refs) -> Hashtbl.replace overflow id (p, refs + 1)
      | None ->
        Atomic.incr overflow_count;
        Hashtbl.replace overflow id (priority, 1))

let rec cell_register cell id priority =
  let cur = Atomic.get cell in
  match cur with
  | None ->
    if Atomic.compare_and_set cell cur (Some { e_id = id; e_priority = priority; e_refs = 1 })
    then ()
    else cell_register cell id priority
  | Some e when e.e_id = id ->
    (* A sibling branch of the same global transaction: bump the
       refcount, keep the first registration's priority (the branches
       share one seniority). *)
    if Atomic.compare_and_set cell cur (Some { e with e_refs = e.e_refs + 1 }) then ()
    else cell_register cell id priority
  | Some _ -> overflow_register id priority

let register_id id priority =
  (* A shared id must refcount in one place: if an earlier branch was
     pushed to the overflow table (its cell was occupied by another
     live transaction), later branches must join it there even if the
     cell has since freed up. *)
  let in_overflow =
    Atomic.get overflow_count > 0
    && with_overflow (fun () ->
           match Hashtbl.find_opt overflow id with
           | Some (p, refs) ->
             Hashtbl.replace overflow id (p, refs + 1);
             true
           | None -> false)
  in
  if not in_overflow then cell_register cells.(cell_index id) id priority

let fresh_id () = Atomic.fetch_and_add counter 1

let make ~releases_anchor ?id ?priority () =
  let id = match id with Some id -> id | None -> fresh_id () in
  let priority = Option.value ~default:id priority in
  register_id id priority;
  { id; priority; model = Model.Txn.make id; state = Atomic.make (Active []); releases_anchor }

let fresh ?id ?priority () = make ~releases_anchor:false ?id ?priority ()
let restart ?id ~priority () = make ~releases_anchor:true ?id ~priority ()

let id t = t.id
let priority t = t.priority

let priority_of_id id =
  match Atomic.get cells.(cell_index id) with
  | Some e when e.e_id = id -> Some e.e_priority
  | Some _ | None ->
    if Atomic.get overflow_count = 0 then None
    else with_overflow (fun () -> Option.map fst (Hashtbl.find_opt overflow id))

let model_txn t = t.model

let status t =
  match Atomic.get t.state with
  | Active _ -> `Active
  | Committed ts -> `Committed ts
  | Aborted -> `Aborted

let has_participant t ~key =
  match Atomic.get t.state with Active ps -> List.mem_assoc key ps | _ -> false

let rec add_participant t ~key p =
  match Atomic.get t.state with
  | Active ps as cur ->
    if
      (not (List.mem_assoc key ps))
      && not (Atomic.compare_and_set t.state cur (Active ((key, p) :: ps)))
    then add_participant t ~key p
  | Aborted -> raise (Abort_requested (p.name ^ ": orphan (transaction already aborted)"))
  | Committed _ -> invalid_arg "Txn_rt.add_participant: transaction already committed"

let participant_count t =
  match Atomic.get t.state with Active ps -> List.length ps | _ -> 0

let rec cell_deregister cell id =
  let cur = Atomic.get cell in
  match cur with
  | Some e when e.e_id = id ->
    let next = if e.e_refs > 1 then Some { e with e_refs = e.e_refs - 1 } else None in
    if Atomic.compare_and_set cell cur next then () else cell_deregister cell id
  | Some _ | None ->
    (* Not (or no longer) in the cell: this registration lives in the
       overflow table. *)
    if Atomic.get overflow_count > 0 then
      with_overflow (fun () ->
          match Hashtbl.find_opt overflow id with
          | Some (p, refs) when refs > 1 -> Hashtbl.replace overflow id (p, refs - 1)
          | Some _ ->
            Hashtbl.remove overflow id;
            Atomic.decr overflow_count
          | None -> ())

let deregister t = cell_deregister cells.(cell_index t.id) t.id

(* An anchor is a registration with no attempt behind it, under
   [lnot priority]: ids are drawn from [0, max_int], so no attempt ever
   has that id, and the registry's cells stay as dense as without
   anchors.  It keeps the transaction live between one attempt's abort
   and the next attempt's commit. *)
let anchor_id priority = lnot priority
let anchor ~priority = register_id (anchor_id priority) priority
let anchored ~priority = priority_of_id (anchor_id priority) <> None

let release_anchor ~priority =
  let id = anchor_id priority in
  cell_deregister cells.(cell_index id) id

(* Oldest participant first, matching touch order. *)
let rec commit t ts =
  match Atomic.get t.state with
  | Active ps as cur ->
    if Atomic.compare_and_set t.state cur (Committed ts) then begin
      deregister t;
      (* Before any participant: an object's release wakes the
         transactions that lost to this one, and they must find it
         gone. *)
      if t.releases_anchor then release_anchor ~priority:t.priority;
      List.iter (fun (_, p) -> p.on_commit ts) (List.rev ps)
    end
    else commit t ts
  | Committed _ | Aborted -> invalid_arg "Txn_rt.commit: transaction not active"

let rec abort t =
  match Atomic.get t.state with
  | Active ps as cur ->
    if Atomic.compare_and_set t.state cur Aborted then begin
      deregister t;
      List.iter (fun (_, p) -> p.on_abort ()) (List.rev ps)
    end
    else abort t
  | Aborted -> ()
  | Committed _ -> invalid_arg "Txn_rt.abort: transaction already committed"
