(* Random well-formed histories generated *through* the LOCK machine.

   The generator plays a random scheduler: a pool of transactions issues
   random invocations; the machine chooses responses (so the history is
   always in L(LOCK) for the given conflict relation); refused
   invocations are dropped or the transaction aborts; transactions commit
   with timestamps from a monotone counter, which satisfies the
   precedes-respecting timestamp constraint by construction.

   With [late_commits] a committing transaction draws its timestamp at
   once but its Commit event is delivered at a later random step, so
   other commits can land in between and an object sees commit
   timestamps below its clock — as the runtime does when two domains
   draw timestamps and distribute commits concurrently.  A timestamp is
   still drawn before the transaction's Commit, so every transaction
   that begins after a Commit draws a larger one.

   Shared by the lock-machine, compaction and runtime test suites. *)

module Make (A : Spec.Adt_sig.BOUNDED) = struct
  module L = Hybrid.Lock_machine.Make (A)
  module H = L.H

  type config = {
    txns : int;  (** transaction pool size *)
    steps : int;  (** scheduler steps *)
    abort_bias : int;  (** 1 in [abort_bias] completions aborts *)
    late_commits : bool;  (** deliver Commit events after later ones *)
  }

  let default = { txns = 3; steps = 18; abort_bias = 4; late_commits = false }

  (* Returns the generated history (the machine accepted every event). *)
  let generate ?(config = default) (rand : Random.State.t) ~conflict : H.t =
    let invocations = List.map fst A.universe in
    let inv_array = Array.of_list invocations in
    let pick_inv () = inv_array.(Random.State.int rand (Array.length inv_array)) in
    let machine = ref (L.create ~conflict) in
    let history = ref [] in
    let clock = ref 0 in
    let completed = Array.make config.txns false in
    let late = ref [] (* (txn, timestamp) drawn but not yet delivered *) in
    let apply e =
      match L.step !machine e with
      | Ok m ->
        machine := m;
        history := e :: !history;
        true
      | Error _ -> false
    in
    let deliver k =
      let ((t, ts) as c) = List.nth !late k in
      late := List.filter (fun c' -> c' != c) !late;
      ignore (apply (H.Commit (t, ts)))
    in
    for _ = 1 to config.steps do
      if !late <> [] && Random.State.int rand 8 = 0 then
        deliver (Random.State.int rand (List.length !late));
      let i = Random.State.int rand config.txns in
      let t = Model.Txn.make i in
      if not completed.(i) then
        match L.pending !machine t with
        | Some _ -> (
          (* Try to respond; on refusal, sometimes abort. *)
          match L.available_responses !machine t with
          | r :: rest ->
            let choices = Array.of_list (r :: rest) in
            let r = choices.(Random.State.int rand (Array.length choices)) in
            ignore (apply (H.Respond (t, r)))
          | [] ->
            if Random.State.int rand 2 = 0 then begin
              ignore (apply (H.Abort t));
              completed.(i) <- true
            end)
        | None ->
          (* Invoke something, or complete. *)
          let die = Random.State.int rand 10 in
          if die < 6 then ignore (apply (H.Invoke (t, pick_inv ())))
          else if die < 9 then begin
            if Random.State.int rand config.abort_bias = 0 then
              ignore (apply (H.Abort t))
            else begin
              incr clock;
              if config.late_commits then late := (t, !clock) :: !late
              else ignore (apply (H.Commit (t, !clock)))
            end;
            completed.(i) <- true
          end
    done;
    while !late <> [] do
      deliver (Random.State.int rand (List.length !late))
    done;
    List.rev !history
end
