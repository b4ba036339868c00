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
  Format.fprintf ppf "== CRASH %s ==@." r.c_id;
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

let limit = 400

(* Run the first row of [w] durably, then re-derive the object from
   every deterministic crash image of the finished log: recovery through
   the checkpoint must match the reference replay of that image's
   committed prefix (observational equivalence).  fsync is off — the
   crash images are cut from the finished file, so durability across
   power loss is not what is under test — and the rewrite threshold is
   effectively infinite so the full record history survives for the
   reference replay. *)
let run ?(scale = Driver.quick_scale) ?(seed = 0) ?(group_commit = true) ~dir
    (w : Workload.t) =
  match w.rows with
  | Workload.Row { target = Workload.Whole (adt, conflict); script; _ } :: _ ->
    let module D = (val adt) in
    let module O = Runtime.Atomic_obj.Make (D) in
    let module R = Wal.Recover.Make (D) in
    let path = Filename.concat dir (String.lowercase_ascii w.id ^ ".wal") in
    let log = Wal.Log.create ~fsync:false ~group_commit ~compact_threshold:max_int path in
    let mgr = Runtime.Manager.create ~wal:log () in
    let o = O.create ~wal:(log, D.codec) ~conflict () in
    let result =
      Workload.drive scale ~seed ~mgr (fun txn i -> ignore (O.invoke o txn i)) script
    in
    let live = Wal.Log.live log in
    Wal.Log.close log;
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
      c_id = w.id;
      c_committed = result.committed;
      c_records = List.length records;
      c_live = live;
      c_kill_points = List.length kps;
      c_failures = failures;
      c_final = final;
    }
  | _ -> invalid_arg "Crash_exp.run: the first row must be a whole object"

let all ?scale ?seed ?group_commit ~dir () =
  List.map
    (run ?scale ?seed ?group_commit ~dir)
    [ Workload.queue_mixed; Workload.semiqueue; Workload.account ]
