module Make (A : Spec.Adt_sig.S) = struct
  module H = Model.History.Make (A)
  module L = Lock_machine.Make (A)
  module Txn = Model.Txn
  module Tmap = Map.Make (Txn)

  type op = A.inv * A.res

  (* An active transaction's intentions with its memoised view: [view]
     is [base] extended by the operations in order, and [base] is the
     [committed_cache] it was built on.  The memo is current exactly
     when [base == committed_cache] — physical equality on an immutable
     list, so a match can never be stale; only a Commit replaces the
     cache. *)
  type intention = {
    ops : op list; (* reversed *)
    view : A.state list;
    base : A.state list;
  }

  type t = {
    conflict : op -> op -> bool;
    version : A.state list; (* state set after the forgotten prefix *)
    forgotten : int;
    remembered : (Model.Timestamp.t * Txn.t * op list) list;
        (* committed but not yet forgotten, ascending timestamp order *)
    folded_upto : Xts.t; (* largest timestamp folded into the version *)
    committed_cache : A.state list;
        (* state set after version * remembered — replaced only by a
           Commit (a fold leaves it alone), so views need not replay
           committed intentions on every invocation *)
    pending : A.inv Tmap.t;
    intentions : intention Tmap.t; (* active transactions only *)
    aborted : unit Tmap.t;
        (* the only completion fact kept: an aborted transaction may
           keep invoking (paper Section 2), and the runtime may deliver
           an Abort ahead of an in-flight invocation *)
    clock : Xts.t;
    bound : Xts.t Tmap.t;
  }

  let create ~conflict =
    {
      conflict;
      version = [ A.initial ];
      forgotten = 0;
      remembered = [];
      folded_upto = Xts.Neg_inf;
      committed_cache = [ A.initial ];
      pending = Tmap.empty;
      intentions = Tmap.empty;
      aborted = Tmap.empty;
      clock = Xts.Neg_inf;
      bound = Tmap.empty;
    }

  let is_aborted t q = Tmap.mem q t.aborted

  let horizon t =
    let min_bound =
      Tmap.fold
        (fun _ b acc -> match acc with None -> Some b | Some m -> Some (Xts.min m b))
        t.bound None
    in
    (* [clock] equals the largest commit timestamp ever seen, so it is
       exactly Definition 20's max over committed transactions. *)
    match min_bound with None -> t.clock | Some b -> Xts.min b t.clock

  (* Fold the remembered prefix at or below the horizon into the
     version.  [committed_cache] is by definition the version extended by
     every remembered entry, so when the horizon reaches the clock — the
     largest commit timestamp, which is the newest remembered one
     whenever the list is non-empty, since folds take a prefix — the
     whole list folds without a replay; only a partial fold replays its
     prefix, and a horizon below the oldest entry costs one comparison.
     Callers must keep the cache current before folding (see the Commit
     step). *)
  let fold_prefix hz t =
    let rec go version forgotten upto = function
      | (ts, _, ops) :: rest when Xts.(of_ts ts <= hz) ->
        let version = H.Seq.states_after' version (List.rev ops) in
        assert (version <> []);
        go version (forgotten + 1) (Xts.of_ts ts) rest
      | remembered -> (version, forgotten, upto, remembered)
    in
    match t.remembered with
    | (ts, _, _) :: _ when Xts.(of_ts ts <= hz) ->
      let version, forgotten, folded_upto, remembered =
        go t.version t.forgotten t.folded_upto t.remembered
      in
      { t with version; forgotten; folded_upto; remembered }
    | _ -> t

  let forget t =
    let hz = horizon t in
    if t.remembered <> [] && Xts.(t.clock <= hz) then
      {
        t with
        version = t.committed_cache;
        forgotten = t.forgotten + List.length t.remembered;
        folded_upto = t.clock;
        remembered = [];
      }
    else fold_prefix hz t

  let recompute_cache t =
    let cache =
      List.fold_left
        (fun ss (_, _, ops) -> H.Seq.states_after' ss (List.rev ops))
        t.version t.remembered
    in
    { t with committed_cache = cache }

  (* The state set of a transaction's view: the committed cache extended
     by its own intentions — the memo while it is current, otherwise a
     replay. *)
  let view_of t = function
    | None -> t.committed_cache
    | Some e when e.base == t.committed_cache -> e.view
    | Some e -> H.Seq.states_after' t.committed_cache (List.rev e.ops)

  (* [intentions] holds active transactions only (a Respond for a
     completed transaction is refused; Commit and Abort remove the
     entry), so every other holder is a live lock. *)
  let find_conflict t q candidate =
    Tmap.fold
      (fun p e acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Txn.equal p q then None
          else
            List.find_opt (fun op -> t.conflict op candidate) e.ops
            |> Option.map (fun op -> (p, op)))
      t.intentions None

  type conflict_info = { c_holder : Txn.t; c_requested : op; c_held : op }

  let insert_by_ts entry l =
    let ts_of (ts, _, _) = ts in
    let rec go = function
      | [] -> [ entry ]
      | x :: rest ->
        if Model.Timestamp.compare (ts_of entry) (ts_of x) < 0 then entry :: x :: rest
        else x :: go rest
    in
    go l

  (* The Respond step given the transaction's intentions entry and the
     view built from it: the legality check's result is the extended
     view, stored as the new memo. *)
  let respond t q entry view candidate =
    match H.Seq.states_after' view [ candidate ] with
    | [] -> Error L.Illegal_in_view
    | view -> (
      match find_conflict t q candidate with
      | Some (p, op) -> Error (L.Lock_conflict (p, op))
      | None ->
        let ops = match entry with Some e -> e.ops | None -> [] in
        Ok
          (forget
             {
               t with
               pending = Tmap.remove q t.pending;
               intentions =
                 Tmap.add q
                   { ops = candidate :: ops; view; base = t.committed_cache }
                   t.intentions;
               bound = Tmap.add q t.clock t.bound;
             }))

  let step t (event : H.event) =
    match event with
    | H.Invoke (q, i) ->
      let bound = if is_aborted t q then t.bound else Tmap.add q t.clock t.bound in
      Ok (forget { t with pending = Tmap.add q i t.pending; bound })
    | H.Commit (q, ts) ->
      let entry = Tmap.find_opt q t.intentions in
      let ops = match entry with Some e -> e.ops | None -> [] in
      (* When the new timestamp is the largest committed so far (the
         common case: timestamps are drawn just before commit events are
         distributed), the committed sequence is only extended at the
         end, so the new cache is this transaction's view; an
         out-of-order commit splices into the middle and forces a full
         replay. *)
      let in_order = Xts.(t.clock <= of_ts ts) in
      let t' =
        {
          t with
          remembered = insert_by_ts (ts, q, ops) t.remembered;
          intentions = Tmap.remove q t.intentions;
          clock = Xts.max t.clock (Xts.of_ts ts);
          bound = Tmap.remove q t.bound;
          pending = Tmap.remove q t.pending;
        }
      in
      (* [forget] folds from the cache, so in order the cache is
         extended before the fold; out of order the fold replays its
         prefix (never the stale cache) and the cache is rebuilt from
         what stays remembered. *)
      Ok
        (if in_order then forget { t' with committed_cache = view_of t entry }
         else recompute_cache (fold_prefix (horizon t') t'))
    | H.Abort q ->
      Ok
        (forget
           {
             t with
             aborted = Tmap.add q () t.aborted;
             intentions = Tmap.remove q t.intentions;
             bound = Tmap.remove q t.bound;
             pending = Tmap.remove q t.pending;
           })
    | H.Respond (q, r) -> (
      match Tmap.find_opt q t.pending with
      | None -> Error L.No_pending
      | Some _ when is_aborted t q -> Error L.Already_completed
      | Some i ->
        let entry = Tmap.find_opt q t.intentions in
        respond t q entry (view_of t entry) (i, r))

  let run ~conflict h =
    let rec go t = function
      | [] -> Ok t
      | e :: rest -> (
        match step t e with Ok t' -> go t' rest | Error refusal -> Error (e, refusal))
    in
    go (create ~conflict) h

  (* The distinct responses to [i] from the states of a view. *)
  let responses view i =
    List.concat_map (fun s -> List.map fst (A.step s i)) view
    |> List.fold_left (fun acc r -> if List.exists (A.equal_res r) acc then acc else r :: acc) []
    |> List.rev

  let available_responses t q =
    match Tmap.find_opt q t.pending with
    | None -> []
    | Some _ when is_aborted t q -> []
    | Some i ->
      let entry = Tmap.find_opt q t.intentions in
      let view = view_of t entry in
      List.filter (fun r -> Result.is_ok (respond t q entry view (i, r))) (responses view i)

  let choose_response t q =
    match Tmap.find_opt q t.pending with
    | None -> invalid_arg "Compacted.choose_response: no pending invocation"
    | Some i ->
      let entry = Tmap.find_opt q t.intentions in
      let view = view_of t entry in
      let candidates = responses view i in
      if candidates = [] then Error `Blocked
      else if is_aborted t q then
        (* An orphan's responses are all refused (Already_completed):
           a refusal with no holder to name. *)
        Error (`Conflict None)
      else
        let rec try_all conflict = function
          | [] -> Error (`Conflict conflict)
          | r :: rest -> (
            match respond t q entry view (i, r) with
            | Ok t' -> Ok (r, t')
            | Error (L.Lock_conflict (p, held)) ->
              try_all (Some { c_holder = p; c_requested = (i, r); c_held = held }) rest
            | Error _ -> try_all conflict rest)
        in
        try_all None candidates

  let pending t q = Tmap.find_opt q t.pending
  let committed_states t = t.committed_cache

  let pin t q ts = { t with bound = Tmap.add q (Xts.of_ts ts) t.bound }
  let unpin t q = forget { t with bound = Tmap.remove q t.bound }
  let folded_upto t = t.folded_upto

  let states_at t ~at =
    if Xts.(of_ts at < t.folded_upto) then None
    else
      Some
        (List.fold_left
           (fun ss (ts, _, ops) ->
             if Model.Timestamp.compare ts at <= 0 then
               H.Seq.states_after' ss (List.rev ops)
             else ss)
           t.version t.remembered)

  let clock t = t.clock
  let version_states t = t.version
  let forgotten t = t.forgotten
  let remembered t = List.length t.remembered

  let live_ops t =
    List.fold_left (fun acc (_, _, ops) -> acc + List.length ops) 0 t.remembered
    + Tmap.fold (fun _ e acc -> acc + List.length e.ops) t.intentions 0

  let active t =
    Tmap.fold (fun q e acc -> (q, List.length e.ops) :: acc) t.intentions []
    |> List.rev

  type summary = {
    s_folded_upto : Xts.t;
    s_forgotten : int;
    s_remembered : int;
    s_live_ops : int;
  }

  let summary t =
    {
      s_folded_upto = t.folded_upto;
      s_forgotten = t.forgotten;
      s_remembered = remembered t;
      s_live_ops = live_ops t;
    }
end
