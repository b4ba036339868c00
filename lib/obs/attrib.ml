type kind = Inv | Res | Op

(* (obj, kind, code) -> label; written once per interned payload by the
   emitting object, read by reports.  A plain mutex is fine: interning
   is off the per-operation fast path (first occurrence only). *)
let labels : (int * kind * int, string) Hashtbl.t = Hashtbl.create 256
let object_names : (int, string) Hashtbl.t = Hashtbl.create 32

(* obj key -> cell key, for objects that are one cell of a partitioned
   logical object; absent for whole-object-granularity objects. *)
let object_cells : (int, int) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register_label ~obj ~kind ~code l =
  with_registry (fun () ->
      if not (Hashtbl.mem labels (obj, kind, code)) then
        Hashtbl.add labels (obj, kind, code) l)

let register_object ~obj ?cell name =
  with_registry (fun () ->
      if not (Hashtbl.mem object_names obj) then Hashtbl.add object_names obj name;
      match cell with
      | Some c when not (Hashtbl.mem object_cells obj) -> Hashtbl.add object_cells obj c
      | _ -> ())

let object_cell ~obj = with_registry (fun () -> Hashtbl.find_opt object_cells obj)

let fallback kind code =
  let prefix = match kind with Inv -> "inv" | Res -> "res" | Op -> "op" in
  Printf.sprintf "%s#%d" prefix code

let label ~obj ~kind code =
  match with_registry (fun () -> Hashtbl.find_opt labels (obj, kind, code)) with
  | Some l -> l
  | None -> fallback kind code

let object_name ~obj =
  match with_registry (fun () -> Hashtbl.find_opt object_names obj) with
  | Some n -> n
  | None -> Printf.sprintf "obj#%d" obj

(* Snapshots for the flight recorder's metadata chunk: an offline
   decoder runs in a fresh process, so the label tables must travel with
   the file. *)
let export_objects () =
  with_registry (fun () ->
      Hashtbl.fold (fun obj name acc -> (obj, name) :: acc) object_names [])
  |> List.sort compare

let export_labels () =
  with_registry (fun () ->
      Hashtbl.fold (fun (obj, kind, code) l acc -> (obj, kind, code, l) :: acc) labels [])
  |> List.sort compare

(* ---- matrices ---- *)

type cell = { refusals : int; blocked_ns : int }

type t = {
  matrix : (int * int * int, cell) Hashtbl.t; (* (obj, requested, held) *)
  by_holder : (int, int) Hashtbl.t;
  mutable refusals_total : int;
  mutable blocked_total : int;
}

let bump t key ~refusals ~blocked_ns =
  let prev =
    match Hashtbl.find_opt t.matrix key with
    | Some c -> c
    | None -> { refusals = 0; blocked_ns = 0 }
  in
  Hashtbl.replace t.matrix key
    { refusals = prev.refusals + refusals; blocked_ns = prev.blocked_ns + blocked_ns };
  t.refusals_total <- t.refusals_total + refusals;
  t.blocked_total <- t.blocked_total + blocked_ns

let of_entries entries =
  let t =
    {
      matrix = Hashtbl.create 64;
      by_holder = Hashtbl.create 64;
      refusals_total = 0;
      blocked_total = 0;
    }
  in
  (* Open blocked windows: (obj, txn) -> (matrix key of the first
     refusal, its timestamp).  Blocked time is attributed to the cell
     that first refused the attempt; later refusals of the same stalled
     attempt count as refusals but do not reopen the window. *)
  let open_waits : (int * int, (int * int * int) * int) Hashtbl.t = Hashtbl.create 64 in
  let last_time = ref 0 in
  let close_window key time =
    match Hashtbl.find_opt open_waits key with
    | None -> ()
    | Some (cell_key, since) ->
      Hashtbl.remove open_waits key;
      bump t cell_key ~refusals:0 ~blocked_ns:(max 0 (time - since))
  in
  let close_txn_windows txn time =
    Hashtbl.fold (fun (o, q) _ acc -> if q = txn then (o, q) :: acc else acc) open_waits []
    |> List.iter (fun key -> close_window key time)
  in
  List.iter
    (fun (e : Trace.entry) ->
      last_time := e.time;
      match e.event with
      | Trace.Lock_refused { holder; requested; held } ->
        let cell_key = (e.obj, requested, held) in
        bump t cell_key ~refusals:1 ~blocked_ns:0;
        (match holder with
        | Some h ->
          Hashtbl.replace t.by_holder h
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_holder h))
        | None -> ());
        if not (Hashtbl.mem open_waits (e.obj, e.txn)) then
          Hashtbl.add open_waits (e.obj, e.txn) (cell_key, e.time)
      | Trace.Respond _ -> close_window (e.obj, e.txn) e.time
      | Trace.Commit _ | Trace.Abort -> close_txn_windows e.txn e.time
      | Trace.Invoke _ | Trace.Blocked | Trace.Retry
      | Trace.Horizon_advanced _ | Trace.Forgotten _ ->
        ())
    entries;
  (* A window the trace ends on is charged up to the last event seen. *)
  Hashtbl.fold (fun key _ acc -> key :: acc) open_waits []
  |> List.iter (fun key -> close_window key !last_time);
  t

let total_refusals t = t.refusals_total
let total_blocked_ns t = t.blocked_total

let sort_cells l =
  List.sort
    (fun (_, a) (_, b) ->
      match compare b.refusals a.refusals with
      | 0 -> compare b.blocked_ns a.blocked_ns
      | c -> c)
    l

let cells t = Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.matrix [] |> sort_cells

let labelled_cells t =
  let merged = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (obj, req, held) c ->
      let key =
        ( object_name ~obj,
          label ~obj ~kind:Op req,
          label ~obj ~kind:Op held )
      in
      let prev =
        match Hashtbl.find_opt merged key with
        | Some p -> p
        | None -> { refusals = 0; blocked_ns = 0 }
      in
      Hashtbl.replace merged key
        { refusals = prev.refusals + c.refusals; blocked_ns = prev.blocked_ns + c.blocked_ns })
    t.matrix;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) merged [] |> sort_cells

let holders t =
  Hashtbl.fold (fun h n acc -> (h, n) :: acc) t.by_holder []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let pp ?(top = 10) ppf t =
  if t.refusals_total = 0 then Format.fprintf ppf "no fired conflicts@."
  else begin
    Format.fprintf ppf "fired conflicts: %d, blocked %.3fms total@." t.refusals_total
      (float_of_int t.blocked_total *. 1e-6);
    List.iteri
      (fun i ((obj, req, held), c) ->
        if i < top then
          Format.fprintf ppf "  %-18s %-22s vs %-22s %6d refusals %10.3fms blocked@." obj
            req held c.refusals
            (float_of_int c.blocked_ns *. 1e-6))
      (labelled_cells t)
  end
