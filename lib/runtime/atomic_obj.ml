module Make (A : Spec.Adt_sig.S) = struct
  module C = Hybrid.Compacted.Make (A)
  module H = Model.History.Make (A)
  module R = Obs.Replay.Make (A)

  type op = A.inv * A.res

  let equal_op (i, r) (i', r') = A.equal_inv i i' && A.equal_res r r'

  (* Payload intern tables, keyed by the ADT's own equality (OCaml's
     generic hash is consistent with it for the structural equalities
     the shipped ADTs use).  The forward direction is a hashtable so a
     long-running object with many distinct payloads (Sim.Live
     deliberately enqueues unique values) interns in O(1), not
     O(distinct payloads); decoding goes through a growable reverse
     array indexed by code. *)
  module InvTbl = Hashtbl.Make (struct
    type t = A.inv

    let equal = A.equal_inv
    let hash = Hashtbl.hash
  end)

  module ResTbl = Hashtbl.Make (struct
    type t = A.res

    let equal = A.equal_res
    let hash = Hashtbl.hash
  end)

  module OpTbl = Hashtbl.Make (struct
    type t = op

    let equal = equal_op
    let hash = Hashtbl.hash
  end)

  (* Append [v] at index [n] (= current count), doubling on overflow. *)
  let rev_push arr n v =
    let cap = Array.length arr in
    let arr =
      if n < cap then arr
      else begin
        let bigger = Array.make (max 8 (2 * cap)) None in
        Array.blit arr 0 bigger 0 cap;
        bigger
      end
    in
    arr.(n) <- Some v;
    arr

  type stats = {
    invocations : int;
    conflicts : int;
    blocked : int;
    commits : int;
    aborts : int;
    forgotten : int;
    max_overtaken : int;
  }

  (* Process-wide protocol counters; the registry deduplicates by name,
     so every instantiation of this functor shares them. *)
  let m_invocations = Obs.Metrics.counter "obj.invocations"
  let m_conflicts = Obs.Metrics.counter "obj.conflicts"
  let m_blocked = Obs.Metrics.counter "obj.blocked"
  let m_commits = Obs.Metrics.counter "obj.commits"
  let m_aborts = Obs.Metrics.counter "obj.aborts"
  let m_forgotten = Obs.Metrics.counter "obj.forgotten"

  (* A transaction older than the holder it was refused by, waiting on
     this object (wait-die lets it wait): its id, wait-die priority and
     the operation whose lock it was refused. *)
  type senior = { s_id : int; s_priority : int; s_requested : op }

  (* The machine is an atomic reference to an immutable value, and every
     update of it is one compare-and-swap publish in [transition].  The
     mutex orders side effects, not the machine: an update whose trace
     emission, WAL appends or event recording must appear in machine
     order runs under it ([section]), and a publish that keeps losing
     its CAS takes the object exclusively under it ([exclusive]).  Even
     under the mutex the machine field is only ever updated by CAS, so a
     lock-free publish racing a mutex holder costs the holder one
     recompute, never a lost update.
     CAS on the machine is ABA-free: every transition allocates a fresh
     immutable value, and OCaml's compare-and-set is physical equality
     on pointers that cannot be recycled while m0 is still reachable. *)
  type t = {
    name : string;
    key : int; (* process-unique, for participant registration *)
    cell : int option; (* cell of a partitioned logical object, if any *)
    mutex : Mutex.t;
    machine : C.t Atomic.t;
    exclusive : bool Atomic.t; (* raised by a publish holding the mutex *)
    senior : senior option Atomic.t;
    conflict : op -> op -> bool;
    invocations : int Atomic.t;
    conflicts : int Atomic.t;
    blocked : int Atomic.t;
    commits : int Atomic.t;
    aborts : int Atomic.t;
    overtaken : int Atomic.t; (* the most CASes one update has lost *)
    record : bool;
    mutable events : H.event list; (* newest first; only when [record] *)
    trace : Obs.Trace.t option; (* explicit sink; overrides the global one *)
    wal : (Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t) option;
    op_label : op -> string;
    (* Payload intern tables: trace entries carry invocations, responses
       and (for refusal attribution) whole operations as small codes
       assigned in order of first appearance.  Mutated only under the
       mutex; a repeat payload is one hashtable probe, and a payload's
       first occurrence also registers the human-readable label with
       the process-wide [Obs.Attrib] registry so reports and timeline
       exports can decode the codes after this object is gone. *)
    inv_codes : int InvTbl.t;
    mutable inv_rev : A.inv option array;
    mutable inv_next : int;
    res_codes : int ResTbl.t;
    mutable res_rev : A.res option array;
    mutable res_next : int;
    op_codes : int OpTbl.t;
    mutable op_rev : op option array;
    mutable op_next : int;
  }

  let default_op_label (i, r) = Format.asprintf "%a/%a" A.pp_inv i A.pp_res r

  let create ?name ?cell ?(record = false) ?trace ?wal ?(op_label = default_op_label)
      ~conflict () =
    let key = Txn_rt.fresh_object_key () in
    let name = match name with Some n -> n | None -> Printf.sprintf "%s#%d" A.name key in
    Obs.Attrib.register_object ~obj:key ?cell name;
    (* Declare the object up front so recovery can dispatch this log's
       records to the right DURABLE implementation by ADT name. *)
    (match wal with
    | Some (w, _) -> Wal.Log.append w (Wal.Log.Object { obj = name; adt = A.name; cell })
    | None -> ());
    {
      name;
      key;
      cell;
      mutex = Mutex.create ();
      machine = Atomic.make (C.create ~conflict);
      exclusive = Atomic.make false;
      senior = Atomic.make None;
      conflict;
      invocations = Atomic.make 0;
      conflicts = Atomic.make 0;
      blocked = Atomic.make 0;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      overtaken = Atomic.make 0;
      record;
      events = [];
      trace;
      wal;
      op_label;
      inv_codes = InvTbl.create 16;
      inv_rev = [||];
      inv_next = 0;
      res_codes = ResTbl.create 16;
      res_rev = [||];
      res_next = 0;
      op_codes = OpTbl.create 16;
      op_rev = [||];
      op_next = 0;
    }

  let name t = t.name
  let key t = t.key
  let cell t = t.cell

  let with_lock t f =
    Lockstat.count_obj ();
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* ---- trace emission (all emitting sites run under the object's
     mutex, so the ring window restricted to this object is a faithful
     suffix of the machine's event order) ---- *)

  let tracing t = Option.is_some t.trace || Obs.Control.enabled ()

  (* An update is [ordered] when it has per-object side effects beyond
     the machine CAS — trace emission, WAL append, event recording — or
     when Lockstat's forced-mutex baseline is on.  [trace]/[wal]/[record]
     are fixed at creation; the global trace switch and the forced mode
     are dynamic, so a toggle mid-run routes new updates the other way
     (in-flight publishes stay linearizable either way — see
     [transition]). *)
  let ordered t =
    Option.is_some t.wal || t.record || tracing t || Lockstat.force_slow ()

  (* The one body of every update: [f t ordered x y] runs under the
     mutex exactly when [ordered] holds, and performs its side effects
     only then, so the object's trace/log/history stays in machine order.
     [f] takes its arguments separately, so an unordered update
     allocates no closure. *)
  let section t f x y =
    if ordered t then with_lock t (fun () -> f t true x y) else f t false x y

  let emit t ~txn ev =
    match t.trace with
    | Some tr -> Obs.Trace.emit tr ~obj:t.key ~txn ev
    | None ->
      if Obs.Control.enabled () then Obs.Trace.emit Obs.Trace.global ~obj:t.key ~txn ev

  let encode_inv t i =
    match InvTbl.find_opt t.inv_codes i with
    | Some c -> c
    | None ->
      let c = t.inv_next in
      t.inv_next <- c + 1;
      InvTbl.replace t.inv_codes i c;
      t.inv_rev <- rev_push t.inv_rev c i;
      Obs.Attrib.register_label ~obj:t.key ~kind:Obs.Attrib.Inv ~code:c
        (Format.asprintf "%a" A.pp_inv i);
      c

  let encode_res t r =
    match ResTbl.find_opt t.res_codes r with
    | Some c -> c
    | None ->
      let c = t.res_next in
      t.res_next <- c + 1;
      ResTbl.replace t.res_codes r c;
      t.res_rev <- rev_push t.res_rev c r;
      Obs.Attrib.register_label ~obj:t.key ~kind:Obs.Attrib.Res ~code:c
        (Format.asprintf "%a" A.pp_res r);
      c

  let encode_op t o =
    match OpTbl.find_opt t.op_codes o with
    | Some c -> c
    | None ->
      let c = t.op_next in
      t.op_next <- c + 1;
      OpTbl.replace t.op_codes o c;
      t.op_rev <- rev_push t.op_rev c o;
      Obs.Attrib.register_label ~obj:t.key ~kind:Obs.Attrib.Op ~code:c (t.op_label o);
      c

  let decode_inv t c = if c >= 0 && c < t.inv_next then t.inv_rev.(c) else None
  let decode_res t c = if c >= 0 && c < t.res_next then t.res_rev.(c) else None
  let decode_op_locked t c = if c >= 0 && c < t.op_next then t.op_rev.(c) else None

  (* ---- introspection (snapshot channels + gauges) ----

     Providers and callback gauges are keyed by the object's name, so a
     long-lived server that recreates objects under stable names keeps a
     bounded provider set (both registries replace on key).  Opt-in via
     an explicit {!register_introspection} call because short-lived
     benchmark objects with generated names would otherwise accumulate
     registrations for the life of the process.

     All providers read one [Atomic.get] of the machine — a consistent
     immutable snapshot — so live introspection never takes the object
     mutex and cannot perturb the lock-free hot path it is watching. *)

  let xts_json = function
    | Hybrid.Xts.Fin ts -> Obs.Json.Int ts
    | Hybrid.Xts.Neg_inf -> Obs.Json.Null

  let locks_json t () =
    let m = Atomic.get t.machine in
    let rows =
      List.map
        (fun (q, n) ->
          Obs.Json.Obj
            [ ("txn", Obs.Json.Int (Model.Txn.id q)); ("intentions", Obs.Json.Int n) ])
        (C.active m)
    in
    Obs.Json.Obj
      ([
         ("object", Obs.Json.String t.name);
         ("key", Obs.Json.Int t.key);
       ]
      @ (match t.cell with
        | Some c -> [ ("cell", Obs.Json.Int c) ]
        | None -> [])
      @ [
          ("active", Obs.Json.List rows);
          ("conflicts", Obs.Json.Int (Atomic.get t.conflicts));
          ("blocked", Obs.Json.Int (Atomic.get t.blocked));
        ])

  let horizon_json t () =
    let m = Atomic.get t.machine in
    let s = C.summary m in
    let lag =
      match (C.clock m, s.C.s_folded_upto) with
      | Hybrid.Xts.Fin c, Hybrid.Xts.Fin f -> Obs.Json.Int (c - f)
      | Hybrid.Xts.Fin c, Hybrid.Xts.Neg_inf -> Obs.Json.Int c
      | Hybrid.Xts.Neg_inf, _ -> Obs.Json.Int 0
    in
    Obs.Json.Obj
      [
        ("object", Obs.Json.String t.name);
        ("key", Obs.Json.Int t.key);
        ("horizon", xts_json (C.horizon m));
        ("folded_upto", xts_json s.C.s_folded_upto);
        ("clock", xts_json (C.clock m));
        ("clock_lag", lag);
        ("forgotten", Obs.Json.Int s.C.s_forgotten);
        ("remembered", Obs.Json.Int s.C.s_remembered);
        ("live_ops", Obs.Json.Int s.C.s_live_ops);
      ]

  let register_introspection t =
    Obs.Registry.register_snapshot ~channel:"locks" ~name:t.name (locks_json t);
    Obs.Registry.register_snapshot ~channel:"horizon" ~name:t.name (horizon_json t);
    let labels = [ ("obj", t.name) ] in
    Obs.Gauge.callback ~labels "obj_live_ops" (fun () ->
        float_of_int (C.live_ops (Atomic.get t.machine)));
    (* Remembered committed transactions = the Theorem 24 compaction
       debt: commits the horizon has not yet let this object fold. *)
    Obs.Gauge.callback ~labels "obj_compaction_debt" (fun () ->
        float_of_int (C.remembered (Atomic.get t.machine)))

  let unregister_introspection t =
    Obs.Registry.unregister_snapshot ~channel:"locks" ~name:t.name;
    Obs.Registry.unregister_snapshot ~channel:"horizon" ~name:t.name;
    let labels = [ ("obj", t.name) ] in
    Obs.Gauge.remove_callback ~labels "obj_live_ops";
    Obs.Gauge.remove_callback ~labels "obj_compaction_debt"

  let push_event t e = if t.record then t.events <- e :: t.events

  (* Lost CASes a publish absorbs before taking the object exclusively,
     and polls of a raised [exclusive] before queueing on the mutex. *)
  let max_lost_cas = 4
  let exclusive_polls = 128

  (* The published pair reports its own fold.  [Compacted.step] folds on
     Invoke, Respond, Commit and Abort alike (and unpin folds too), and
     Theorem 24 says the forgotten prefix only grows, so
     [forgotten m1 - forgotten m0] is exactly the fold this CAS made: it
     goes to the [obj.forgotten] counter, and for an [ordered] update to
     the [Horizon_advanced]/[Forgotten] trace pair ([Forgotten] carries
     the cumulative count, so monotonicity is visible in the event
     stream).  With a WAL attached, the same fold is the checkpoint
     trigger: the horizon is permanent, so the folded version at the new
     horizon timestamp is a sound recovery base, and every log record of
     a transaction whose every touched object has checkpointed at or
     past its timestamp becomes dead weight the log compactor may
     drop. *)
  let report_fold t ~ordered ~txn m0 m1 =
    let forgotten = C.forgotten m1 in
    if forgotten > C.forgotten m0 then begin
      Obs.Metrics.add m_forgotten (forgotten - C.forgotten m0);
      match (ordered, C.folded_upto m1) with
      | true, Hybrid.Xts.Fin upto -> (
        emit t ~txn (Obs.Trace.Horizon_advanced upto);
        emit t ~txn (Obs.Trace.Forgotten forgotten);
        match t.wal with
        | Some (w, codec) ->
          let payload = Wal.Codec.encode_states codec (C.version_states m1) in
          Wal.Log.append w (Wal.Log.Checkpoint { obj = t.name; upto; payload; cell = t.cell })
        | None -> ())
      | _ -> ()
    end

  (* Every machine update lands through this function.  [f t x y m0]
     must be pure in the machine [m0]: compute an outcome holding the
     successor, which [machine] projects out, with no side effects.  Its
     arguments come separately, so a publish allocates no closure, and
     the outcome is the step's own value (the machine itself, or the
     machine's result), so it allocates no pair either.  Physical
     equality short-circuits no-op transitions.  [ordered] is the
     caller's [section] flag, so it also says whether the caller holds
     the mutex.

     Progress is bounded.  A lost CAS recomputes against the fresher
     value, but after [max_lost_cas] losses the publish takes the object
     exclusively: it holds the mutex and raises [exclusive], and every
     publisher not holding the mutex checks that flag before computing
     its step — it polls briefly, then queues on the mutex.  Only the
     publishes already past their check can still beat the holder, at
     most one per other domain, so a step that is slow to compute (a
     view rebuild, a fold that replays many commits) cannot be starved
     by a stream of cheap ones: an update loses at most [max_lost_cas]
     plus one CAS per other domain, and [overtaken] keeps the most any
     update has lost.  Invoke, commit, abort, pin and unpin all follow
     this one rule.  The uncontended path allocates nothing here beyond
     what [f] returns. *)
  let rec note_overtaken t lost =
    let cur = Atomic.get t.overtaken in
    if lost > cur && not (Atomic.compare_and_set t.overtaken cur lost) then note_overtaken t lost

  let rec exclusive_dropped t polls =
    if not (Atomic.get t.exclusive) then true
    else if polls = 0 then false
    else begin
      Domain.cpu_relax ();
      exclusive_dropped t (polls - 1)
    end

  let rec publish t ~ordered ~held ~txn f machine x y lost =
    if (not held) && Atomic.get t.exclusive && not (exclusive_dropped t exclusive_polls) then
      exclusively t ~ordered ~txn f machine x y lost
    else
      let m0 = Atomic.get t.machine in
      let out = f t x y m0 in
      let m1 = machine out in
      if m1 == m0 || Atomic.compare_and_set t.machine m0 m1 then begin
        if lost > 0 then note_overtaken t lost;
        report_fold t ~ordered ~txn m0 m1;
        out
      end
      else if held || lost < max_lost_cas then begin
        Domain.cpu_relax ();
        publish t ~ordered ~held ~txn f machine x y (lost + 1)
      end
      else exclusively t ~ordered ~txn f machine x y lost

  (* An [ordered] caller already holds the mutex, and no other publish
     can raise the flag while it does. *)
  and exclusively t ~ordered ~txn f machine x y lost =
    if not ordered then begin
      Lockstat.count_obj ();
      Mutex.lock t.mutex
    end;
    Atomic.set t.exclusive true;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.exclusive false;
        if not ordered then Mutex.unlock t.mutex)
      (fun () -> publish t ~ordered ~held:true ~txn f machine x y lost)

  let transition t ~ordered ~txn f machine x y =
    publish t ~ordered ~held:false ~txn f machine x y 0

  (* The projection for steps whose outcome is the machine itself. *)
  let itself (m : C.t) = m

  (* The pure machine never refuses invoke/commit/abort events. *)
  let accept m event = match C.step m event with Ok m' -> m' | Error _ -> assert false

  let accept_step _ event () m = accept m event

  (* ---- the senior rule ----

     Wait-die lets a refused transaction that is older than the holder
     wait, but nothing stops a younger one from taking the released lock
     before the waiter's retry lands: one domain that commits and begins
     again in a tight loop can bar an older waiter indefinitely.  So the
     oldest such waiter is recorded in [senior], and a younger
     transaction whose chosen response conflicts with the senior's
     refused operation is refused too, naming the senior as holder — so
     wait-die kills it before it takes the lock.  The extra refusal only
     delays a response, which LOCK allows; the Conflict relation is
     unchanged; and waits-for edges still point only from older to
     younger transactions. *)

  let rec record_senior t s =
    let cur = Atomic.get t.senior in
    match cur with
    | Some c when c.s_id <> s.s_id && c.s_priority < s.s_priority -> ()
    | _ -> if not (Atomic.compare_and_set t.senior cur (Some s)) then record_senior t s

  (* The senior's response was granted or blocked, or it completed. *)
  let clear_senior t id =
    match Atomic.get t.senior with
    | Some s as cur when s.s_id = id -> ignore (Atomic.compare_and_set t.senior cur None : bool)
    | _ -> ()

  let barred_by_senior t ~id ~priority i r =
    match Atomic.get t.senior with
    | Some s when s.s_priority < priority && s.s_id <> id && t.conflict (i, r) s.s_requested ->
      Some s
    | _ -> None

  (* Commit and abort share one body.  Either releases this
     transaction's locks, so parked waiters go back to the retry
     scheduler — after the publish, so a woken waiter's re-attempt
     observes the release. *)
  let complete_section t ordered txn event =
    let commit = match event with H.Commit _ -> true | _ -> false in
    if ordered then
      emit t ~txn
        (match event with H.Commit (_, ts) -> Obs.Trace.Commit ts | _ -> Obs.Trace.Abort);
    ignore (transition t ~ordered ~txn accept_step itself event () : C.t);
    push_event t event;
    Atomic.incr (if commit then t.commits else t.aborts);
    Obs.Metrics.incr (if commit then m_commits else m_aborts)

  let complete t ~txn event =
    section t complete_section txn event;
    clear_senior t txn;
    Sched.notify ~obj:t.key

  let participant t txn : Txn_rt.participant =
    let q = Txn_rt.model_txn txn in
    let txn = Txn_rt.id txn in
    {
      Txn_rt.name = t.name;
      on_commit = (fun ts -> complete t ~txn (H.Commit (q, ts)));
      on_abort = (fun () -> complete t ~txn (H.Abort q));
    }

  (* The wait-die priority travels with the refusal: resolve the
     holder's priority {e now}, while the conflict is current, never
     later by id (ids recycle — see {!Retry.conflict}). *)
  let capture_conflict info =
    Option.map
      (fun ci ->
        let holder = Model.Txn.id ci.C.c_holder in
        { Retry.holder; holder_priority = Txn_rt.priority_of_id holder })
      info

  (* A lock refusal: counted, and for a traced update emitted with the
     attribution pair (requested operation, the operation it conflicts
     with). *)
  let refuse t ~ordered ~txn ~holder attribution =
    Atomic.incr t.conflicts;
    Obs.Metrics.incr m_conflicts;
    if ordered && tracing t then
      let requested, held =
        match attribution with
        | Some (requested, held) -> (encode_op t requested, encode_op t held)
        | None -> (Obs.Trace.no_op, Obs.Trace.no_op)
      in
      emit t ~txn (Obs.Trace.Lock_refused { holder; requested; held })

  (* Invoke and choose against one snapshot, published by one CAS.  A
     refused attempt leaves the invocation pending (the paper retries
     the response, not the invocation), so only a fresh invocation steps
     the machine; a refusal still publishes that step — the pending
     invocation carries the machine's timestamp lower bound for this
     transaction.  A response the senior rule bars is refused the same
     way.  The outcome is the machine's own result unless the senior
     rule bars it, so an uncontended invocation allocates nothing
     here. *)
  let fresh m q i = match C.pending m q with Some i' -> not (A.equal_inv i i') | None -> true

  type invoked =
    ( A.res * C.t,
      [ `Blocked | `Conflict of C.conflict_info option | `Senior of senior * A.res ] * C.t )
    result

  let invoke_step t txn i m0 : invoked =
    let q = Txn_rt.model_txn txn in
    match C.invoke_and_choose m0 q i with
    | Ok (r, _) as chosen -> (
      match barred_by_senior t ~id:(Txn_rt.id txn) ~priority:(Txn_rt.priority txn) i r with
      | None -> (chosen :> invoked)
      | Some s ->
        let m1 = if fresh m0 q i then accept m0 (H.Invoke (q, i)) else m0 in
        Error (`Senior (s, r), m1))
    | Error _ as refused -> (refused :> invoked)

  let invoked_machine = function Ok (_, m) | Error (_, m) -> m

  let invoke_section t ordered txn i =
    let q = Txn_rt.model_txn txn in
    let qid = Txn_rt.id txn in
    let priority = Txn_rt.priority txn in
    (* Only an ordered update records the Invoke, and it holds the
       mutex, so the machine it reads here is the one it steps. *)
    let fresh = ordered && fresh (Atomic.get t.machine) q i in
    let chosen = transition t ~ordered ~txn:qid invoke_step invoked_machine txn i in
    if fresh then begin
      emit t ~txn:qid (Obs.Trace.Invoke (encode_inv t i));
      push_event t (H.Invoke (q, i))
    end;
    match chosen with
    | Ok (r, _) ->
      clear_senior t qid;
      Atomic.incr t.invocations;
      Obs.Metrics.incr m_invocations;
      if ordered then begin
        (* Write-ahead intention: the operation joins the
           transaction's intentions list in the log the moment it
           is chosen, under the object mutex — so intentions for
           one object appear in the log in execution order, and a
           commit record can only follow every intention it
           covers. *)
        (match t.wal with
        | Some (w, codec) ->
          Wal.Log.append w
            (Wal.Log.Intention
               {
                 obj = t.name;
                 txn = qid;
                 payload = Wal.Codec.encode_op codec (i, r);
                 cell = t.cell;
               })
        | None -> ());
        push_event t (H.Respond (q, r));
        emit t ~txn:qid (Obs.Trace.Respond (encode_res t r))
      end;
      Ok r
    | Error (`Blocked, _) ->
      (* A blocked senior waits on the state, not on a lock. *)
      clear_senior t qid;
      Atomic.incr t.blocked;
      Obs.Metrics.incr m_blocked;
      if ordered then emit t ~txn:qid Obs.Trace.Blocked;
      Error `Blocked
    | Error (`Conflict info, _) ->
      let conflict = capture_conflict info in
      (* Older than the holder: wait-die lets it wait, so it
         becomes a candidate senior. *)
      (match (info, conflict) with
      | Some ci, Some { Retry.holder_priority = Some hp; _ } when priority < hp ->
        record_senior t { s_id = qid; s_priority = priority; s_requested = ci.C.c_requested }
      | _ -> ());
      refuse t ~ordered ~txn:qid
        ~holder:(Option.map (fun c -> c.Retry.holder) conflict)
        (Option.map (fun ci -> (ci.C.c_requested, ci.C.c_held)) info);
      Error (`Conflict conflict)
    | Error (`Senior (s, r), _) ->
      refuse t ~ordered ~txn:qid ~holder:(Some s.s_id) (Some ((i, r), s.s_requested));
      Error (`Conflict (Some { Retry.holder = s.s_id; holder_priority = Some s.s_priority }))

  let try_invoke t txn i =
    (* Orphan detection (the paper's Section 2 allows aborted
       transactions to keep invoking — modelling orphans — and cites
       orphan-detection mechanisms): an already-completed transaction
       attempting an operation is told to stop rather than being left to
       spin against Already_completed refusals. *)
    (match Txn_rt.status txn with
    | `Active -> ()
    | `Aborted ->
      raise (Txn_rt.Abort_requested (t.name ^ ": orphan (transaction already aborted)"))
    | `Committed _ -> invalid_arg "Atomic_obj.try_invoke: transaction already committed");
    (* Register before publishing: the machine will track a pending
       invocation, a timestamp lower bound and perhaps a lock for this
       transaction, and its commit or abort must reach this object to
       release them.  An abort from another domain either sees the
       registration or has closed the list first, and then registering
       raises.  An abort that lands on the machine ahead of this
       publish is absorbed by it: the orphan invocation adds no bound
       and its response is refused.  The participant is built only on
       first touch. *)
    if not (Txn_rt.has_participant txn ~key:t.key) then
      Txn_rt.add_participant txn ~key:t.key (participant t txn);
    section t invoke_section txn i

  let invoke t txn i =
    (* Per-op flight records only at the detail tier: two extra clock
       reads per invocation would eat the always-on recorder's < 5%
       throughput budget. *)
    let detailed = Obs.Span.detailed () in
    let t0 = if detailed then Obs.Clock.now_ns () else 0 in
    let r =
      (* [Retry.run] unrolled by its first attempt, so the retry
         closures exist only once a refusal needs them. *)
      match try_invoke t txn i with
      | Ok r -> r
      | Error failure ->
        Retry.refused
          ~on_retry:(fun () -> emit t ~txn:(Txn_rt.id txn) Obs.Trace.Retry)
          ~obj:t.key ~name:t.name ~self:txn
          (fun () -> try_invoke t txn i)
          failure
    in
    if detailed then begin
      let inv = with_lock t (fun () -> encode_inv t i) in
      Obs.Span.op ~txn:(Txn_rt.id txn) ~obj:t.key ~inv ~dur_ns:(Obs.Clock.now_ns () - t0)
    end;
    r

  (* ---- reads: one [Atomic.get] yields a consistent immutable machine,
     so none of these contend with writers ---- *)

  let committed_states t =
    (* Extend the forgotten version with remembered committed
       intentions: replay the permanent prefix. *)
    C.committed_states (Atomic.get t.machine)

  let stats t =
    {
      invocations = Atomic.get t.invocations;
      conflicts = Atomic.get t.conflicts;
      blocked = Atomic.get t.blocked;
      commits = Atomic.get t.commits;
      aborts = Atomic.get t.aborts;
      forgotten = C.forgotten (Atomic.get t.machine);
      max_overtaken = Atomic.get t.overtaken;
    }

  let live_ops t = C.live_ops (Atomic.get t.machine)
  let history t = with_lock t (fun () -> List.rev t.events)
  let decode_op t c = with_lock t (fun () -> decode_op_locked t c)

  (* ---- trace replay ---- *)

  let sink t = match t.trace with Some tr -> tr | None -> Obs.Trace.global

  let replayed_history t =
    let entries = Obs.Trace.entries (sink t) in
    with_lock t (fun () ->
        R.reconstruct ~obj:t.key ~decode_inv:(decode_inv t) ~decode_res:(decode_res t)
          entries)

  let replay_check ?online t = R.check ?online (replayed_history t)

  (* Online audit hook: the sampler re-runs the replay check against the
     object's sink every tick.  A wrapped ring cannot be replay-checked
     soundly (the truncated history would fail well-formedness
     spuriously), so the closure reports the lost window instead of a
     fake verdict. *)
  let register_audit ?name t =
    let audit_name = match name with Some n -> n | None -> "replay/" ^ t.name in
    Obs.Sampler.register_audit ~name:audit_name (fun () ->
        if Obs.Trace.dropped (sink t) > 0 then Obs.Sampler.skip_window_lost ()
        else replay_check t);
    audit_name

  (* ---- snapshot reads (see Snapshot) ---- *)

  let pin_step _ reader at m = C.pin m reader at
  let unpin_step _ reader () m = C.unpin m reader

  let unpin_section t ordered reader () =
    ignore (transition t ~ordered ~txn:(Model.Txn.id reader) unpin_step itself reader () : C.t)

  let snapshot_source t =
    {
      Snapshot.source_name = t.name;
      (* Pinning only adds a lower bound, so it never folds and needs
         no ordering; unpin can fold, and its checkpoint and trace
         side effects make it an ordered update like any other. *)
      pin =
        (fun reader at ->
          ignore
            (transition t ~ordered:false ~txn:(Model.Txn.id reader) pin_step itself reader at
              : C.t));
      unpin = (fun reader -> section t unpin_section reader ());
    }

  let read_at t ~at i =
    match C.states_at (Atomic.get t.machine) ~at with
    | None -> raise Snapshot.Unavailable
    | Some ss -> (
      match List.concat_map (fun s -> A.step s i) ss with
      | (r, _) :: _ -> Some r
      | [] -> None)
end
