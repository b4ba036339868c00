type report = {
  entries : int;
  refusals : int;
  edges : int;
  max_width : int;
  cycles : int list list;
  blocked_ns : (int * int) list;
  deaths : (int * int) list;
  longest_death_chain : int list;
}

(* One open stalled attempt: the requester [txn] on [obj] was refused,
   currently by [holder] (None once the holder completed or was never
   known), since [since].  A refusal alone is only a {e candidate} edge:
   under wait-die the requester may die instead of waiting, and the
   trace records the refusal either way.  Only the requester's
   subsequent [Retry] — which {!Runtime.Retry} emits strictly after the
   wait-die decision to wait — promotes the candidate to a live
   waits-for edge ([live]); a dying transaction never retries, so its
   refusal never becomes an edge. *)
type wait = { mutable holder : int option; mutable live : bool; since : int }

let analyze (entries : Trace.entry list) =
  let waits : (int * int, wait) Hashtbl.t = Hashtbl.create 64 in
  let completed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let blocked : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let n_entries = ref 0 in
  let n_refusals = ref 0 in
  let n_edges = ref 0 in
  let max_width = ref 0 in
  let cycles = ref [] in
  let deaths = ref [] in
  let adjacency () =
    (* requester -> holders, derived from the confirmed live waits *)
    let adj = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (_, q) w ->
        match w.holder with
        | Some h when w.live ->
          Hashtbl.replace adj q (h :: Option.value ~default:[] (Hashtbl.find_opt adj q))
        | Some _ | None -> ())
      waits;
    adj
  in
  let find_cycle ~from ~target =
    (* A path target ->* from means the new edge from -> target closes a
       loop; return the loop as a transaction list. *)
    let adj = adjacency () in
    let rec dfs visited path q =
      if q = from then Some (List.rev (q :: path))
      else if List.mem q visited then None
      else
        List.fold_left
          (fun acc h ->
            match acc with
            | Some _ -> acc
            | None -> dfs (q :: visited) (q :: path) h)
          None
          (Option.value ~default:[] (Hashtbl.find_opt adj q))
    in
    dfs [] [] target
  in
  let live_width () =
    Hashtbl.fold (fun _ w acc -> if w.live && w.holder <> None then acc + 1 else acc) waits 0
  in
  let charge_blocked txn ns =
    Hashtbl.replace blocked txn (ns + Option.value ~default:0 (Hashtbl.find_opt blocked txn))
  in
  let close_wait key time =
    match Hashtbl.find_opt waits key with
    | None -> ()
    | Some w ->
      Hashtbl.remove waits key;
      charge_blocked (snd key) (max 0 (time - w.since))
  in
  let last_time = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      incr n_entries;
      last_time := e.time;
      match e.event with
      | Trace.Lock_refused { holder; _ } ->
        incr n_refusals;
        let holder =
          (* an edge to a completed transaction is stale: its locks are
             already released, the next retry will not wait on it *)
          match holder with
          | Some h when (not (Hashtbl.mem completed h)) && h <> e.txn -> Some h
          | _ -> None
        in
        (match Hashtbl.find_opt waits (e.obj, e.txn) with
        | Some w ->
          (* same stalled attempt, re-refused (possibly by a new
             holder): back to candidate until the next Retry confirms
             the requester chose to wait again *)
          w.holder <- holder;
          w.live <- false
        | None -> Hashtbl.add waits (e.obj, e.txn) { holder; live = false; since = e.time })
      | Trace.Retry -> (
        (* the wait-die decision was "wait": the candidate edge (if the
           stall has a known holder) is now a real waits-for edge *)
        match Hashtbl.find_opt waits (e.obj, e.txn) with
        | Some ({ holder = Some h; live = false; _ } as w) ->
          w.live <- true;
          incr n_edges;
          (match find_cycle ~from:e.txn ~target:h with
          | Some loop -> cycles := loop :: !cycles
          | None -> ());
          max_width := max !max_width (live_width ())
        | Some _ | None -> ())
      | Trace.Respond _ -> close_wait (e.obj, e.txn) e.time
      | Trace.Commit _ | Trace.Abort ->
        if e.event = Trace.Abort then
          (* dying while stalled on a holder (wait-die victims included:
             their refusal's candidate edge names the killer): record
             the death for cascade statistics before the windows close *)
          Hashtbl.iter
            (fun (_, q) w ->
              match w.holder with
              | Some h when q = e.txn -> deaths := (q, h) :: !deaths
              | _ -> ())
            waits;
        Hashtbl.fold (fun (o, q) _ acc -> if q = e.txn then (o, q) :: acc else acc) waits []
        |> List.iter (fun key -> close_wait key e.time);
        Hashtbl.replace completed e.txn ();
        (* the completing transaction holds no locks any more: edges
           pointing at it go stale *)
        Hashtbl.iter
          (fun _ w -> if w.holder = Some e.txn then w.holder <- None)
          waits
      | Trace.Invoke _ | Trace.Blocked | Trace.Horizon_advanced _ | Trace.Forgotten _ ->
        ())
    entries;
  Hashtbl.fold (fun key _ acc -> key :: acc) waits []
  |> List.iter (fun key -> close_wait key !last_time);
  let deaths = List.rev !deaths in
  let longest_death_chain =
    (* victims are unique (a transaction id aborts once), so chains
       follow the victim -> holder map; guard against stale holders
       resurrecting an earlier victim *)
    let next = Hashtbl.create 16 in
    List.iter (fun (v, h) -> if not (Hashtbl.mem next v) then Hashtbl.add next v h) deaths;
    let rec chain visited v =
      if List.mem v visited then []
      else
        match Hashtbl.find_opt next v with
        | Some h -> v :: chain (v :: visited) h
        | None -> [ v ]
    in
    List.fold_left
      (fun best (v, _) ->
        let c = chain [] v in
        if List.length c > List.length best then c else best)
      [] deaths
  in
  {
    entries = !n_entries;
    refusals = !n_refusals;
    edges = !n_edges;
    max_width = !max_width;
    cycles = List.rev !cycles;
    blocked_ns =
      Hashtbl.fold (fun q ns acc -> (q, ns) :: acc) blocked []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    deaths;
    longest_death_chain;
  }

let ok r = r.cycles = []

let pp ppf r =
  Format.fprintf ppf
    "wait-for: %d entries, %d refusals, %d edges (max width %d), %d cycles — %s@."
    r.entries r.refusals r.edges r.max_width (List.length r.cycles)
    (if ok r then "acyclic (wait-die invariant holds)" else "CYCLE DETECTED");
  List.iter
    (fun loop ->
      Format.fprintf ppf "  cycle: %s@."
        (String.concat " -> " (List.map (Printf.sprintf "T%d") loop)))
    r.cycles;
  (match r.blocked_ns with
  | [] -> ()
  | top ->
    Format.fprintf ppf "  most blocked:%s@."
      (String.concat ""
         (List.filteri (fun i _ -> i < 5) top
         |> List.map (fun (q, ns) ->
                Printf.sprintf " T%d=%.3fms" q (float_of_int ns *. 1e-6)))));
  if r.deaths <> [] then
    Format.fprintf ppf "  deaths while waiting: %d, longest death chain: %s@."
      (List.length r.deaths)
      (String.concat " -> " (List.map (Printf.sprintf "T%d") r.longest_death_chain))

let to_json r =
  Json.Obj
    [
      ("entries", Json.Int r.entries);
      ("refusals", Json.Int r.refusals);
      ("edges", Json.Int r.edges);
      ("max_width", Json.Int r.max_width);
      ("acyclic", Json.Bool (ok r));
      ( "cycles",
        Json.List (List.map (fun loop -> Json.List (List.map (fun q -> Json.Int q) loop)) r.cycles)
      );
      ( "blocked_ns",
        Json.List
          (List.map
             (fun (q, ns) -> Json.Obj [ ("txn", Json.Int q); ("ns", Json.Int ns) ])
             r.blocked_ns) );
      ( "deaths",
        Json.List
          (List.map
             (fun (victim, holder) ->
               Json.Obj [ ("victim", Json.Int victim); ("holder", Json.Int holder) ])
             r.deaths) );
      ( "longest_death_chain",
        Json.List (List.map (fun q -> Json.Int q) r.longest_death_chain) );
    ]
