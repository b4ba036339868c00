(* Chrome trace_event JSON-array output.  Events are buffered as
   strings and written in one pass; the format does not require any
   particular event order.  String escaping goes through {!Json.escape}
   — the one escaping discipline every exporter shares. *)

let json_string = Json.escape

let obj_pid = 1
let txn_pid = 2

let chrome_trace ppf (entries : Trace.entry list) =
  let events = ref [] in
  let push e = events := e :: !events in
  let t0 = match entries with e :: _ -> e.Trace.time | [] -> 0 in
  let us t = float_of_int (t - t0) /. 1e3 in
  (* (obj, txn) -> (invocation code, start time) of the operation in
     flight; (obj, txn) -> (refusal, start time) of the stalled attempt *)
  let in_flight : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let stalled : (int * int, Trace.refusal * int) Hashtbl.t = Hashtbl.create 64 in
  let objs : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let txns : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let close_op ~obj ~txn ~res_label time =
    match Hashtbl.find_opt in_flight (obj, txn) with
    | None -> ()
    | Some (inv, since) ->
      Hashtbl.remove in_flight (obj, txn);
      push
        (Printf.sprintf
           {|{"name":%s,"cat":"op","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"txn":%d%s}}|}
           (json_string (Attrib.label ~obj ~kind:Attrib.Inv inv))
           obj_pid obj (us since)
           (Float.max 0.001 (us time -. us since))
           txn res_label)
  in
  let close_stall ~obj ~txn ~outcome time =
    match Hashtbl.find_opt stalled (obj, txn) with
    | None -> ()
    | Some ((r : Trace.refusal), since) ->
      Hashtbl.remove stalled (obj, txn);
      let name =
        Printf.sprintf "%s vs %s"
          (Attrib.label ~obj ~kind:Attrib.Op r.Trace.requested)
          (Attrib.label ~obj ~kind:Attrib.Op r.Trace.held)
      in
      push
        (Printf.sprintf
           {|{"name":%s,"cat":"blocked","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"object":%s,"holder":%s,"outcome":"%s"}}|}
           (json_string name) txn_pid txn (us since)
           (Float.max 0.001 (us time -. us since))
           (json_string (Attrib.object_name ~obj))
           (match r.Trace.holder with Some h -> Printf.sprintf "%d" h | None -> "null")
           outcome)
  in
  let instant ~pid ~tid ~name ~cat time =
    push
      (Printf.sprintf
         {|{"name":%s,"cat":"%s","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%.3f}|}
         (json_string name) cat pid tid (us time))
  in
  List.iter
    (fun (e : Trace.entry) ->
      Hashtbl.replace objs e.obj ();
      Hashtbl.replace txns e.txn ();
      match e.event with
      | Trace.Invoke c ->
        (* a refused attempt leaves the invocation pending; only a fresh
           invoke opens a span *)
        if not (Hashtbl.mem in_flight (e.obj, e.txn)) then
          Hashtbl.add in_flight (e.obj, e.txn) (c, e.time)
      | Trace.Respond c ->
        close_op ~obj:e.obj ~txn:e.txn
          ~res_label:
            (Printf.sprintf ",\"response\":%s"
               (json_string (Attrib.label ~obj:e.obj ~kind:Attrib.Res c)))
          e.time;
        close_stall ~obj:e.obj ~txn:e.txn ~outcome:"granted" e.time
      | Trace.Lock_refused r ->
        instant ~pid:obj_pid ~tid:e.obj ~cat:"refusal"
          ~name:
            (Printf.sprintf "refused T%d: %s" e.txn
               (Attrib.label ~obj:e.obj ~kind:Attrib.Op r.Trace.requested))
          e.time;
        if not (Hashtbl.mem stalled (e.obj, e.txn)) then
          Hashtbl.add stalled (e.obj, e.txn) (r, e.time)
      | Trace.Blocked ->
        instant ~pid:obj_pid ~tid:e.obj ~cat:"blocked"
          ~name:(Printf.sprintf "no legal response for T%d" e.txn)
          e.time
      | Trace.Retry -> ()
      | Trace.Commit ts ->
        Hashtbl.fold (fun (o, q) _ acc -> if q = e.txn then o :: acc else acc) stalled []
        |> List.iter (fun o -> close_stall ~obj:o ~txn:e.txn ~outcome:"commit" e.time);
        instant ~pid:txn_pid ~tid:e.txn ~cat:"commit"
          ~name:(Printf.sprintf "commit@%d" ts)
          e.time
      | Trace.Abort ->
        Hashtbl.fold (fun (o, q) _ acc -> if q = e.txn then o :: acc else acc) stalled []
        |> List.iter (fun o -> close_stall ~obj:o ~txn:e.txn ~outcome:"abort" e.time);
        instant ~pid:txn_pid ~tid:e.txn ~cat:"abort" ~name:"abort" e.time
      | Trace.Horizon_advanced ts ->
        instant ~pid:obj_pid ~tid:e.obj ~cat:"compaction"
          ~name:(Printf.sprintf "horizon->%d" ts)
          e.time
      | Trace.Forgotten n ->
        instant ~pid:obj_pid ~tid:e.obj ~cat:"compaction"
          ~name:(Printf.sprintf "forgotten=%d" n)
          e.time)
    entries;
  (* Run annotations (the workload seed, configuration) ride along as a
     metadata event, so a saved timeline records which run produced it. *)
  (match Metrics.annotations () with
  | [] -> ()
  | notes ->
    push
      (Json.to_string
         (Json.Obj
            [
              ("name", Json.String "run_info");
              ("ph", Json.String "M");
              ("pid", Json.Int 0);
              ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) notes));
            ])));
  (* name the tracks *)
  push
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"objects"}}|} obj_pid);
  push
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"transactions"}}|}
       txn_pid);
  Hashtbl.iter
    (fun o () ->
      push
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}|}
           obj_pid o
           (json_string (Attrib.object_name ~obj:o))))
    objs;
  Hashtbl.iter
    (fun q () ->
      push
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"T%d"}}|}
           txn_pid q q))
    txns;
  Format.fprintf ppf "[@.";
  let rec emit = function
    | [] -> ()
    | [ last ] -> Format.fprintf ppf "%s@." last
    | e :: rest ->
      Format.fprintf ppf "%s,@." e;
      emit rest
  in
  emit (List.rev !events);
  Format.fprintf ppf "]@."

(* ---- span slices --------------------------------------------------

   The flight-recorder exporter ({!Profile.chrome_slices}) builds these
   generic slices; rendering lives here so the trace-event framing and
   escaping discipline stay in one module.  One track per transaction
   under a "spans" process: the whole span is the longest slice and each
   phase window a shorter one — Chrome nests overlapping same-track
   complete-spans automatically, giving the phase-nested view. *)

let span_pid = 3

type slice = {
  sl_name : string;
  sl_cat : string;
  sl_tid : int;
  sl_ts_ns : int;
  sl_dur_ns : int;
  sl_args : (string * string) list;
}

let chrome_spans ppf slices =
  let t0 =
    List.fold_left (fun acc s -> min acc s.sl_ts_ns) max_int slices
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let us t = float_of_int (t - t0) /. 1e3 in
  let events = ref [] in
  let push e = events := e :: !events in
  let tids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace tids s.sl_tid ();
      let args =
        match s.sl_args with
        | [] -> ""
        | kvs ->
          Printf.sprintf {|,"args":{%s}|}
            (String.concat ","
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v))
                  kvs))
      in
      if s.sl_dur_ns = 0 then
        push
          (Printf.sprintf
             {|{"name":%s,"cat":"%s","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%.3f%s}|}
             (json_string s.sl_name) s.sl_cat span_pid s.sl_tid (us s.sl_ts_ns) args)
      else
        push
          (Printf.sprintf
             {|{"name":%s,"cat":"%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f%s}|}
             (json_string s.sl_name) s.sl_cat span_pid s.sl_tid (us s.sl_ts_ns)
             (Float.max 0.001 (float_of_int s.sl_dur_ns /. 1e3))
             args))
    slices;
  push
    (Printf.sprintf {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"spans"}}|}
       span_pid);
  Hashtbl.iter
    (fun tid () ->
      push
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"T%d"}}|}
           span_pid tid tid))
    tids;
  Format.fprintf ppf "[@.";
  let rec emit = function
    | [] -> ()
    | [ last ] -> Format.fprintf ppf "%s@." last
    | e :: rest ->
      Format.fprintf ppf "%s,@." e;
      emit rest
  in
  emit (List.rev !events);
  Format.fprintf ppf "]@."

let metrics_json = Metrics.dump_json
