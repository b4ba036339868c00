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
   sibling branch still holds locks.  A coordinator holds its id's
   entry from the draw until its body ends, so the branches join an
   entry and never create one.

   Lock-free: registration/deregistration runs on {e every} transaction,
   so a mutex here would put one lock on the otherwise mutex-free hot
   path (see Lockstat).  Entries live in a fixed array of atomics; the
   cells hold immutable records, so compare-and-set on physical
   equality suffices (a fresh allocation per update rules out ABA).  A
   cell holds one id at a time: a draw claims its id's cell, and skips
   the id when another live id holds it.  Ids still come from one
   growing counter, so priorities follow the order of first attempts.

   The cells' atomics are allocated in index order, several to a cache
   line, so the cell of an id is a permutation of [id mod cap] that
   moves its low [spread_bits] bits to the top: consecutive ids — the
   live transactions of different domains — sit [cap lsr spread_bits]
   cells apart, and registering one does not write the line another
   domain is writing. *)
let cap = 8192 (* power of two *)
let spread_bits = 3

let cell_index id =
  let stride = cap lsr spread_bits in
  ((id land ((1 lsl spread_bits) - 1)) * stride) lor ((id lsr spread_bits) land (stride - 1))

(* [e_refs] counts live handles plus a coordinator's hold; [e_anchored]
   keeps the entry after its last handle, without making the id
   resolve. *)
type entry = { e_id : int; e_priority : int; e_refs : int; e_anchored : bool }

let free = { e_id = -1; e_priority = 0; e_refs = 0; e_anchored = false } (* drawn ids are never negative *)
let cells = Array.init cap (fun _ -> Atomic.make free)

exception Registry_full

(* Draw ids until one's cell is free and claim it.  [cap] consecutive
   ids cover every cell once, so [cap] misses mean every cell was found
   held. *)
let rec claim priority misses =
  if misses = cap then raise Registry_full;
  let id = Atomic.fetch_and_add counter 1 in
  let cell = cells.(cell_index id) in
  if Atomic.get cell != free then claim priority (misses + 1)
  else
    let p = Option.value priority ~default:id in
    let e = { e_id = id; e_priority = p; e_refs = 1; e_anchored = false } in
    if Atomic.compare_and_set cell free e then e else claim priority (misses + 1)

(* Replace [id]'s entry by [f] of it ([f free] when the cell is free)
   in one CAS, and return what the cell then holds: another id's entry,
   untouched, when that id holds the cell. *)
let rec update id f =
  let cell = cells.(cell_index id) in
  let cur = Atomic.get cell in
  if cur != free && cur.e_id <> id then cur
  else
    let next = f cur in
    if Atomic.compare_and_set cell cur next then next else update id f

let join id priority =
  let e =
    update id (fun e ->
        if e == free then { e_id = id; e_priority = priority; e_refs = 1; e_anchored = false }
        else { e with e_refs = e.e_refs + 1 })
  in
  if e.e_id <> id then invalid_arg "Txn_rt.fresh: another live id holds this id's registry cell";
  e

(* [e] with [refs] holds and [anchored]: the cell frees once the entry
   holds neither. *)
let settle e refs anchored =
  if refs = 0 && not anchored then free else { e with e_refs = refs; e_anchored = anchored }

let release_id id =
  ignore (update id (fun e -> if e == free then free else settle e (e.e_refs - 1) e.e_anchored))

let fresh_id ?priority () = (claim priority 0).e_id

let make ~releases_anchor ?id ?priority () =
  let e =
    match id with
    | None -> claim priority 0
    | Some id -> join id (Option.value ~default:id priority)
  in
  let id = e.e_id and priority = e.e_priority in
  { id; priority; model = Model.Txn.make id; state = Atomic.make (Active []); releases_anchor }

let fresh ?id ?priority () = make ~releases_anchor:false ?id ?priority ()
let restart ?id ~priority () = make ~releases_anchor:true ?id ~priority ()

let id t = t.id
let priority t = t.priority

let priority_of_id id =
  let e = Atomic.get cells.(cell_index id) in
  if e.e_id = id && e.e_refs > 0 then Some e.e_priority else None

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

(* An anchor is a flag on the entry of the transaction's first attempt,
   whose id is the transaction's priority: the transaction stays live
   between one attempt's abort and the next attempt's commit, while the
   dead attempt's id resolves to nothing.  An attempt aborted from
   another domain has left already; its anchor takes the cell again. *)
let anchor ~priority =
  ignore
    (update priority (fun e ->
         if e == free then { e_id = priority; e_priority = priority; e_refs = 0; e_anchored = true }
         else { e with e_anchored = true }))

let anchored ~priority =
  let e = Atomic.get cells.(cell_index priority) in
  e.e_id = priority && e.e_anchored

let release_anchor ~priority =
  ignore (update priority (fun e -> if e == free then free else settle e e.e_refs false))

(* Oldest participant first, matching touch order. *)
let rec commit t ts =
  match Atomic.get t.state with
  | Active ps as cur ->
    if Atomic.compare_and_set t.state cur (Committed ts) then begin
      release_id t.id;
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
      release_id t.id;
      List.iter (fun (_, p) -> p.on_abort ()) (List.rev ps)
    end
    else abort t
  | Aborted -> ()
  | Committed _ -> invalid_arg "Txn_rt.abort: transaction already committed"
