(* A keyed table of per-cell lock machines: the runtime realization of
   Spec.Partition.  Each cell is a full Runtime.Atomic_obj — its own
   mutex, LOCK machine, horizon, trace interning, WAL sub-object — so
   operations in different cells contend on nothing at all, and every
   existing correctness and observability facility (replay audit,
   conflict attribution, checkpointed recovery) applies per cell
   unchanged.  The cell-restricted conflict relation this table
   implements is [Spec.Partition.restrict conflict]: operations in
   different cells are handled by different machines and are never
   tested against each other, which is sound exactly when the
   restriction is still a dependency relation (Definition 3) — checked
   offline by the partition tests, never assumed here. *)

module Make (A : Spec.Adt_sig.S) = struct
  module O = Runtime.Atomic_obj.Make (A)

  type t = {
    name : string;
    n_cells : int;
    conflict : O.op -> O.op -> bool;
    op_label : (O.op -> string) option;
    record : bool;
    trace : Obs.Trace.t option;
    wal : (Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t) option;
    (* Lazily installed cells, index [n_cells] being the whole-object
       fallback.  The no-conflict fast path is one atomic load; the
       slow path (first operation ever to touch a cell) builds the
       machine under [install] and publishes it with a CAS-style
       [Atomic.set], so a cell that was never touched costs nothing —
       a Directory partitioned into many cells allocates machines only
       for keys the workload actually uses. *)
    slots : O.t option Atomic.t array;
    install : Mutex.t;
    mutable introspect : bool; (* register cells as they appear *)
  }

  let create ?name ?(record = false) ?trace ?wal ?op_label ~cells ~conflict () =
    if cells <= 0 then invalid_arg "Part.Cells.create: cells must be positive";
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "%s/part#%d" A.name (Runtime.Txn_rt.fresh_object_key ())
    in
    {
      name;
      n_cells = cells;
      conflict;
      op_label;
      record;
      trace;
      wal;
      slots = Array.init (cells + 1) (fun _ -> Atomic.make None);
      install = Mutex.create ();
      introspect = false;
    }

  let name t = t.name
  let n_cells t = t.n_cells

  let cell_name t k =
    if k = t.n_cells then t.name ^ "/whole" else Printf.sprintf "%s/cell%d" t.name k

  let install_slot t k =
    Mutex.lock t.install;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.install)
      (fun () ->
        let slot = t.slots.(k) in
        match Atomic.get slot with
        | Some o -> o (* lost the install race; reuse the winner *)
        | None ->
          let cell = if k = t.n_cells then None else Some k in
          let o =
            O.create ~name:(cell_name t k) ?cell ~record:t.record ?trace:t.trace
              ?wal:t.wal ?op_label:t.op_label ~conflict:t.conflict ()
          in
          if t.introspect then O.register_introspection o;
          Atomic.set slot (Some o);
          o)

  let slot t k =
    match Atomic.get t.slots.(k) with Some o -> o | None -> install_slot t k

  let cell t k =
    if k < 0 || k >= t.n_cells then
      invalid_arg (Printf.sprintf "Part.Cells.cell: %d outside [0, %d)" k t.n_cells);
    slot t k

  (* The whole-object fallback cell.  A separate machine cannot conflict
     with operations already routed to keyed cells, so routing an
     operation here is sound only in the degenerate regime where every
     operation of the object routes here (whole-object locking under the
     partition plumbing) — which is exactly how non-partitionable ADTs
     ride this table.  Mixed routing requires the partition spec to make
     the operation a wildcard and the implementation to broadcast it to
     the keyed cells instead (see Part.Paccount's Post). *)
  let fallback t = slot t t.n_cells

  let target t = function
    | Some k -> cell t k
    | None -> fallback t

  let try_invoke t txn ~cell:c i = O.try_invoke (target t c) txn i
  let invoke t txn ~cell:c i = O.invoke (target t c) txn i

  let created t =
    let acc = ref [] in
    for k = Array.length t.slots - 1 downto 0 do
      match Atomic.get t.slots.(k) with
      | Some o -> acc := ((if k = t.n_cells then None else Some k), o) :: !acc
      | None -> ()
    done;
    !acc

  let stats t =
    List.fold_left
      (fun (acc : O.stats) (_, o) ->
        let s = O.stats o in
        {
          O.invocations = acc.O.invocations + s.O.invocations;
          conflicts = acc.O.conflicts + s.O.conflicts;
          blocked = acc.O.blocked + s.O.blocked;
          commits = acc.O.commits + s.O.commits;
          aborts = acc.O.aborts + s.O.aborts;
          forgotten = acc.O.forgotten + s.O.forgotten;
          max_overtaken = max acc.O.max_overtaken s.O.max_overtaken;
        })
      {
        O.invocations = 0;
        conflicts = 0;
        blocked = 0;
        commits = 0;
        aborts = 0;
        forgotten = 0;
        max_overtaken = 0;
      }
      (created t)

  let committed_states_by_cell t =
    List.map (fun (k, o) -> (k, O.committed_states o)) (created t)

  (* Replay-audit every materialized cell: each cell is an atomic object
     in its own right, and local atomicity composes (the paper's
     locality argument), so per-cell verdicts are the partition's
     correctness oracle. *)
  let replay_check ?online t =
    List.fold_left
      (fun acc (_, o) ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match O.replay_check ?online o with
          | Ok () -> Ok ()
          | Error e -> Error (O.name o ^ ": " ^ e)))
      (Ok ()) (created t)

  let register_introspection t =
    t.introspect <- true;
    List.iter (fun (_, o) -> O.register_introspection o) (created t)

  let unregister_introspection t =
    t.introspect <- false;
    List.iter (fun (_, o) -> O.unregister_introspection o) (created t)
end
