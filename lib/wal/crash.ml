type kill_point =
  | Before_record of int
  | After_record of int
  | Mid_record of int
  | Torn_tail of int

let pp_kill_point ppf = function
  | Before_record n -> Format.fprintf ppf "before record %d" n
  | After_record n -> Format.fprintf ppf "after record %d" n
  | Mid_record n -> Format.fprintf ppf "mid-append of record %d" n
  | Torn_tail k -> Format.fprintf ppf "final block torn by %d bytes" k

(* Frame boundaries along [Log]'s own walk: [bs.(i)] is where record
   [i] starts, and the last entry is the end of the last good frame —
   before any space the writer had reserved past it. *)
let boundaries raw = Array.of_list (0 :: List.map snd (fst (Log.frames raw)))

let cut raw ~at = String.sub raw 0 (min at (String.length raw))

let image raw =
  let bs = boundaries raw in
  function
  | Before_record i -> cut raw ~at:bs.(i)
  | After_record i -> cut raw ~at:bs.(i + 1)
  | Mid_record i -> cut raw ~at:((bs.(i) + bs.(i + 1)) / 2)
  | Torn_tail k -> cut raw ~at:(bs.(Array.length bs - 1) - k)

(* Every interesting deterministic kill point of a log image:
   - before and after each commit record (the commit either survives
     whole or is absent: atomic commit);
   - mid-append of every record (a torn frame must roll back to the
     previous record, never corrupt recovery);
   - a torn final block (partial last page after power loss). *)
let kill_points ?(limit = max_int) raw =
  let frames, tail = Log.frames raw in
  (match tail with
  | Log.Clean -> ()
  | Log.Torn _ -> invalid_arg "Wal.Crash.kill_points: log image already torn");
  let records = List.map fst frames in
  let end_of_log = List.fold_left (fun _ (_, e) -> e) 0 frames in
  let commit_points =
    List.concat
      (List.mapi
         (fun i r ->
           match r with
           | Log.Commit _ -> [ Before_record i; After_record i ]
           | _ -> [])
         records)
  in
  let mid_points = List.mapi (fun i _ -> Mid_record i) records in
  let tail_points = if end_of_log >= 3 then [ Torn_tail 1; Torn_tail 3 ] else [] in
  let all = commit_points @ mid_points @ tail_points in
  if List.length all <= limit then all
  else
    (* Deterministic thinning: keep every commit point, sample the rest. *)
    let rest = mid_points @ tail_points in
    let keep = max 0 (limit - List.length commit_points) in
    let stride = max 1 (List.length rest / max 1 keep) in
    commit_points @ List.filteri (fun i _ -> i mod stride = 0 && i / stride < keep) rest
