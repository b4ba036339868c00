type run = {
  c_id : string;
  c_committed : int;
  c_records : int;
  c_live : int;
  c_kill_points : int;
  c_failures : (string * string) list;
  c_final : (unit, string) result;
}

let ok r = r.c_failures = [] && Result.is_ok r.c_final

let pp_run ppf r =
  Format.fprintf ppf "== CRASH-%s ==@." (String.uppercase_ascii r.c_id);
  Format.fprintf ppf
    "   %d committed txns, %d log records (%d live), %d kill points@." r.c_committed
    r.c_records r.c_live r.c_kill_points;
  (match r.c_final with
  | Ok () -> Format.fprintf ppf "   clean-log recovery matches the live object: OK@."
  | Error e -> Format.fprintf ppf "   clean-log recovery FAILED: %s@." e);
  match r.c_failures with
  | [] -> Format.fprintf ppf "   every kill point recovers the committed prefix: OK@."
  | fs ->
    List.iter (fun (kp, e) -> Format.fprintf ppf "   FAIL at %s: %s@." kp e) fs

module Make (D : Wal.Codec.DURABLE) = struct
  module O = Runtime.Atomic_obj.Make (D)
  module R = Wal.Recover.Make (D)

  (* Run [body] durably, then re-derive the object from every
     deterministic crash image of the finished log: recovery through the
     checkpoint must match the reference replay of that image's
     committed prefix (observational equivalence).  fsync is off — the
     crash images are cut from the finished file, so durability across
     power loss is not what is under test — and the rewrite threshold is
     effectively infinite so the full record history survives for the
     reference replay.  [workload] seeds the object through the manager
     and returns the transaction body. *)
  let run ?(group_commit = true) ~id ~dir ~scale ~limit ~conflict ~workload () =
    let path = Filename.concat dir (id ^ ".wal") in
    let w = Wal.Log.create ~fsync:false ~group_commit ~compact_threshold:max_int path in
    let mgr = Runtime.Manager.create ~wal:w () in
    let o = O.create ~wal:(w, D.codec) ~conflict () in
    let result = Driver.run scale ~mgr (workload o mgr) in
    let live = Wal.Log.live w in
    Wal.Log.close w;
    let live_states = O.committed_states o in
    let raw = Wal.Log.read_file path in
    let records, _tail = Wal.Log.parse raw in
    let name = O.name o in
    let final =
      match R.recover ~obj:name records with
      | Error e -> Error e
      | Ok oc ->
        if R.equal_states oc.R.states live_states then Ok ()
        else
          Error
            (Format.asprintf "recovered %a but the live object held %a" R.pp_states
               oc.R.states R.pp_states live_states)
    in
    let kps = Wal.Crash.kill_points ~limit raw in
    let image = Wal.Crash.image raw in
    let failures =
      List.filter_map
        (fun kp ->
          let recs, _ = Wal.Log.parse (image kp) in
          let label () = Format.asprintf "%a" Wal.Crash.pp_kill_point kp in
          match (R.recover ~obj:name recs, R.reference ~obj:name recs) with
          | Error e, _ -> Some (label (), "recover: " ^ e)
          | _, Error e -> Some (label (), "reference replay: " ^ e)
          | Ok oc, Ok ref_states ->
            if R.equal_states oc.R.states ref_states then None
            else
              Some
                ( label (),
                  Format.asprintf "recovered %a, committed prefix is %a" R.pp_states
                    oc.R.states R.pp_states ref_states ))
        kps
    in
    {
      c_id = id;
      c_committed = result.Driver.committed;
      c_records = List.length records;
      c_live = live;
      c_kill_points = List.length kps;
      c_failures = failures;
      c_final = final;
    }
end

module Q = Make (Adt.Fifo_queue)
module S = Make (Adt.Semiqueue)
module A = Make (Adt.Account)

let default_limit = 400

let queue ?(scale = Driver.quick_scale) ?(seed = 0) ?group_commit ~dir () =
  Q.run ?group_commit ~id:"queue" ~dir ~scale ~limit:default_limit
    ~conflict:Adt.Fifo_queue.conflict_hybrid
    ~workload:(fun q ->
      Driver.producer_consumer scale ~seed ~ops:3
        ~produce:(fun txn v -> ignore (Q.O.invoke q txn (Adt.Fifo_queue.Enq v)))
        ~consume:(fun txn -> ignore (Q.O.invoke q txn Adt.Fifo_queue.Deq)))
    ()

let semiqueue ?(scale = Driver.quick_scale) ?(seed = 0) ?group_commit ~dir () =
  S.run ?group_commit ~id:"semiqueue" ~dir ~scale ~limit:default_limit
    ~conflict:Adt.Semiqueue.conflict_hybrid
    ~workload:(fun sq ->
      Driver.producer_consumer scale ~seed ~ops:3
        ~produce:(fun txn v -> ignore (S.O.invoke sq txn (Adt.Semiqueue.Ins v)))
        ~consume:(fun txn -> ignore (S.O.invoke sq txn Adt.Semiqueue.Rem)))
    ()

let account ?(scale = Driver.quick_scale) ?(seed = 0) ?group_commit ~dir () =
  A.run ?group_commit ~id:"account" ~dir ~scale ~limit:default_limit
    ~conflict:Adt.Account.conflict_hybrid
    ~workload:(fun acc mgr ->
      Runtime.Manager.run mgr (fun txn ->
          ignore (A.O.invoke acc txn (Adt.Account.Credit 1_000_000)));
      fun ~domain ~seq txn ->
        for k = 0 to 2 do
          let amount = 1 + (Driver.pseudo ~seed domain seq k mod 9) in
          (if (domain + seq) mod 2 = 0 then
             ignore (A.O.invoke acc txn (Adt.Account.Credit amount))
           else ignore (A.O.invoke acc txn (Adt.Account.Debit amount)));
          Driver.think scale.think_us
        done)
    ()

let all ?scale ?seed ?group_commit ~dir () =
  [
    queue ?scale ?seed ?group_commit ~dir ();
    semiqueue ?scale ?seed ?group_commit ~dir ();
    account ?scale ?seed ?group_commit ~dir ();
  ]
