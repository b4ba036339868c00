open Runtime

(* Lock modes and their conflicts (Figure 4-5's symmetric closure), as
   installed by the appendix's [account::account()] constructor. *)
type mode = Credit_lock | Post_lock | Debit_lock | Overdraft_lock

let conflicting a b =
  match (a, b) with
  | Credit_lock, Overdraft_lock | Overdraft_lock, Credit_lock -> true
  | Post_lock, Overdraft_lock | Overdraft_lock, Post_lock -> true
  | Debit_lock, Debit_lock -> true
  | (Credit_lock | Post_lock | Debit_lock | Overdraft_lock), _ -> false

(* A transaction's net effect: balance' = (mul * balance) + add. *)
type intent = { mul : int; add : int }

let identity_intent = { mul = 1; add = 0 }
let apply_intent i bal = (i.mul * bal) + i.add

type t = {
  obj_name : string;
  key : int;
  mutex : Mutex.t;
  mutable bal : int; (* committed balance below the horizon *)
  mutable committed : (Model.Timestamp.t * intent) list; (* ascending ts *)
  locks : (int, mode list) Hashtbl.t; (* txn id -> held modes *)
  intents : (int, intent) Hashtbl.t; (* txn id -> intention *)
  bounds : (int, Hybrid.Xts.t) Hashtbl.t; (* txn id -> commit lower bound *)
  mutable clock : Hybrid.Xts.t; (* latest committed timestamp *)
}

let create ?name () =
  let key = Txn_rt.fresh_object_key () in
  let obj_name = match name with Some n -> n | None -> Printf.sprintf "avalon-account#%d" key in
  {
    obj_name;
    key;
    mutex = Mutex.create ();
    bal = 0;
    committed = [];
    locks = Hashtbl.create 16;
    intents = Hashtbl.create 16;
    bounds = Hashtbl.create 16;
    clock = Hybrid.Xts.Neg_inf;
  }

let name t = t.obj_name

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Some conflicting lock holder other than [who], if any. *)
let conflict_holder t who mode =
  Hashtbl.fold
    (fun holder modes found ->
      match found with
      | Some _ -> found
      | None ->
        if holder <> who && List.exists (fun m -> conflicting m mode) modes then
          Some holder
        else None)
    t.locks None

let grant t who mode =
  let held = Option.value ~default:[] (Hashtbl.find_opt t.locks who) in
  if not (List.mem mode held) then Hashtbl.replace t.locks who (mode :: held)

let intent_of t who = Option.value ~default:identity_intent (Hashtbl.find_opt t.intents who)

let horizon t =
  let min_bound =
    Hashtbl.fold
      (fun _ b acc ->
        match acc with None -> Some b | Some m -> Some (Hybrid.Xts.min m b))
      t.bounds None
  in
  match min_bound with None -> t.clock | Some b -> Hybrid.Xts.min b t.clock

(* Fold committed intentions at or below the horizon into the balance —
   the appendix's [account::forget]. *)
let forget t =
  let hz = horizon t in
  let rec go bal = function
    | (ts, i) :: rest when Hybrid.Xts.(of_ts ts <= hz) -> go (apply_intent i bal) rest
    | remaining -> (bal, remaining)
  in
  let bal, committed = go t.bal t.committed in
  t.bal <- bal;
  t.committed <- committed

(* The view balance: committed (forgotten + remembered, in timestamp
   order) extended by the caller's own intention — the appendix's
   [account::sufficient] view construction. *)
let view_balance t who =
  let after_committed = List.fold_left (fun b (_, i) -> apply_intent i b) t.bal t.committed in
  apply_intent (intent_of t who) after_committed

let release_txn t who =
  Hashtbl.remove t.locks who;
  Hashtbl.remove t.bounds who

(* Capture the holder's wait-die priority with the refusal, inside the
   same locked section that observed the conflict — a later lookup by id
   races id recycling (see {!Retry.conflict}). *)
let capture_conflict holder =
  Option.map
    (fun h -> { Retry.holder = h; holder_priority = Txn_rt.priority_of_id h })
    holder

let participant t (txn : Txn_rt.t) : Txn_rt.participant =
  let who = Txn_rt.id txn in
  {
    Txn_rt.name = t.obj_name;
    on_commit =
      (fun ts ->
        with_lock t (fun () ->
            t.clock <- Hybrid.Xts.max t.clock (Hybrid.Xts.of_ts ts);
            let i = intent_of t who in
            release_txn t who;
            Hashtbl.remove t.intents who;
            (* insert in timestamp order *)
            let rec insert = function
              | [] -> [ (ts, i) ]
              | (ts', i') :: rest when Model.Timestamp.compare ts ts' > 0 ->
                (ts', i') :: insert rest
              | rest -> (ts, i) :: rest
            in
            t.committed <- insert t.committed;
            forget t);
        (* Locks released: wake any transaction parked on this object. *)
        Sched.notify ~obj:t.key);
    on_abort =
      (fun () ->
        with_lock t (fun () ->
            release_txn t who;
            Hashtbl.remove t.intents who;
            forget t);
        Sched.notify ~obj:t.key);
  }

let register t txn =
  if not (Txn_rt.has_participant txn ~key:t.key) then
    Txn_rt.add_participant txn ~key:t.key (participant t txn)

let record_bound t who = Hashtbl.replace t.bounds who t.clock

(* Orphan detection, as in Atomic_obj: a completed transaction must not
   acquire locks its completion can no longer release.  Callers register
   first (which raises on a completed transaction) and check under the
   mutex: an abort from another domain then either closed the
   participant list before the registration, or runs this object's
   [on_abort] — before the locked section, which the check then
   refuses, or after it, releasing what it granted. *)
let check_live t txn =
  match Txn_rt.status txn with
  | `Active -> ()
  | `Aborted ->
    raise (Txn_rt.Abort_requested (t.obj_name ^ ": orphan (transaction already aborted)"))
  | `Committed _ -> invalid_arg "Avalon_account: transaction already committed"

let update_intent t txn mode f =
  register t txn;
  let who = Txn_rt.id txn in
  with_lock t (fun () ->
      check_live t txn;
      match conflict_holder t who mode with
      | Some holder -> Error (`Conflict (capture_conflict (Some holder)))
      | None ->
        grant t who mode;
        Hashtbl.replace t.intents who (f (intent_of t who));
        record_bound t who;
        Ok ())

let try_credit t txn amt =
  update_intent t txn Credit_lock (fun i -> { i with add = i.add + amt })

let try_post t txn pct =
  update_intent t txn Post_lock (fun i ->
      { mul = i.mul * (1 + pct); add = i.add * (1 + pct) })

let try_debit t txn amt =
  register t txn;
  let who = Txn_rt.id txn in
  with_lock t (fun () ->
      check_live t txn;
      let view = view_balance t who in
      let debit_holder = conflict_holder t who Debit_lock in
      let overdraft_holder = conflict_holder t who Overdraft_lock in
      if view >= amt && debit_holder = None then begin
        (* YES: sufficient funds and the DEBIT lock is grantable. *)
        grant t who Debit_lock;
        let i = intent_of t who in
        Hashtbl.replace t.intents who { i with add = i.add - amt };
        record_bound t who;
        Ok true
      end
      else if view < amt && overdraft_holder = None then begin
        (* NO: overdraft; lock the observation, leave the balance. *)
        grant t who Overdraft_lock;
        record_bound t who;
        Ok false
      end
      else
        (* MAYBE: lock conflicts leave the status ambiguous. *)
        let holder = if view >= amt then debit_holder else overdraft_holder in
        Error (`Conflict (capture_conflict holder)))

let credit t txn amt =
  Retry.run ~obj:t.key ~name:t.obj_name ~self:txn (fun () ->
      try_credit t txn amt)

let post t txn pct =
  Retry.run ~obj:t.key ~name:t.obj_name ~self:txn (fun () ->
      try_post t txn pct)

let debit t txn amt =
  Retry.run ~obj:t.key ~name:t.obj_name ~self:txn (fun () ->
      try_debit t txn amt)

let committed_balance t =
  with_lock t (fun () ->
    List.fold_left (fun b (_, i) -> apply_intent i b) t.bal t.committed)

let forgotten_balance t = with_lock t (fun () -> t.bal)
let remembered_intents t = with_lock t (fun () -> List.length t.committed)
