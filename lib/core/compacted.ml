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

  (* [clock] equals the largest commit timestamp ever seen, so it is
     exactly Definition 20's max over committed transactions; folding
     the bounds into it allocates nothing. *)
  let horizon t = Tmap.fold (fun _ b hz -> Xts.min b hz) t.bound t.clock

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
     entry), so every other holder is a live lock.  When [q] is the only
     holder — the uncontended case — there is nothing to scan, and the
     scan's closure is never built. *)
  let find_conflict t q candidate =
    match Tmap.cardinal t.intentions with
    | 0 -> None
    | 1 when Tmap.mem q t.intentions -> None
    | _ ->
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

  (* Grant [candidate] to [q] — legal in its view, which it extends to
     [view], and conflicting with no lock held by another transaction:
     the extended view is stored as the new memo. *)
  let grant t q entry candidate view =
    let ops = match entry with Some e -> e.ops | None -> [] in
    forget
      {
        t with
        pending = Tmap.remove q t.pending;
        intentions =
          Tmap.add q { ops = candidate :: ops; view; base = t.committed_cache } t.intentions;
        bound = Tmap.add q t.clock t.bound;
      }

  let invoke t q i =
    let bound = if is_aborted t q then t.bound else Tmap.add q t.clock t.bound in
    forget { t with pending = Tmap.add q i t.pending; bound }

  let step t (event : H.event) =
    match event with
    | H.Invoke (q, i) -> Ok (invoke t q i)
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
      | Some i -> (
        let entry = Tmap.find_opt q t.intentions in
        let candidate = (i, r) in
        match H.Seq.states_after' (view_of t entry) [ candidate ] with
        | [] -> Error L.Illegal_in_view
        | view -> (
          match find_conflict t q candidate with
          | Some (p, op) -> Error (L.Lock_conflict (p, op))
          | None -> Ok (grant t q entry candidate view))))

  let run ~conflict h =
    let rec go t = function
      | [] -> Ok t
      | e :: rest -> (
        match step t e with Ok t' -> go t' rest | Error refusal -> Error (e, refusal))
    in
    go (create ~conflict) h

  (* One pass over a view: every state is stepped once, and the
     outcomes are grouped by response in order of first appearance, each
     response with its successor states in order of first appearance —
     exactly [H.Seq.states_after' view [ (i, r) ]], the view a grant of
     [r] leaves.  Top-level functions, not closures, so an uncontended
     invocation allocates only the groups. *)
  let rec add_outcome r s' = function
    | [] -> [ (r, [ s' ]) ]
    | ((r0, ss) as g) :: rest ->
      if not (A.equal_res r r0) then g :: add_outcome r s' rest
      else if List.exists (A.equal_state s') ss then g :: rest
      else (r0, ss @ [ s' ]) :: rest

  let rec add_steps groups = function
    | [] -> groups
    | (r, s') :: rest -> add_steps (add_outcome r s' groups) rest

  let rec outcomes_from i groups = function
    | [] -> groups
    | s :: rest -> outcomes_from i (add_steps groups (A.step s i)) rest

  let outcomes view i = outcomes_from i [] view

  let available_responses t q =
    match Tmap.find_opt q t.pending with
    | None -> []
    | Some _ when is_aborted t q -> []
    | Some i ->
      outcomes (view_of t (Tmap.find_opt q t.intentions)) i
      |> List.filter_map (fun (r, _) ->
             if Option.is_none (find_conflict t q (i, r)) then Some r else None)

  (* [t] with [q]'s invocation [i] pending: the Invoke step, unless [i]
     already is — a refused invocation stays pending. *)
  let invoked t q i =
    match Tmap.find_opt q t.pending with
    | Some i' when A.equal_inv i i' -> t
    | Some _ | None -> invoke t q i

  (* The first grantable group, attributing the last conflict seen.  A
     grant extends [t] itself: the Invoke it implies would only add the
     pending entry that the grant removes, and the bound the grant sets
     anyway. *)
  let rec grant_first t q entry i conflict = function
    | [] -> Error (`Conflict conflict, invoked t q i)
    | (r, view) :: rest -> (
      let candidate = (i, r) in
      match find_conflict t q candidate with
      | Some (p, held) ->
        grant_first t q entry i
          (Some { c_holder = p; c_requested = candidate; c_held = held })
          rest
      | None -> Ok (r, grant t q entry candidate view))

  let invoke_and_choose t q i =
    let entry = Tmap.find_opt q t.intentions in
    match outcomes (view_of t entry) i with
    | [] -> Error (`Blocked, invoked t q i)
    | _ when is_aborted t q ->
      (* An orphan's responses are all refused (Already_completed):
         a refusal with no holder to name. *)
      Error (`Conflict None, invoked t q i)
    | groups -> grant_first t q entry i None groups

  let choose_response t q =
    match Tmap.find_opt q t.pending with
    | None -> invalid_arg "Compacted.choose_response: no pending invocation"
    | Some i -> (
      match invoke_and_choose t q i with
      | Ok (r, t') -> Ok (r, t')
      | Error (refusal, _) -> Error refusal)

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
