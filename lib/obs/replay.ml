module Make (A : Spec.Adt_sig.S) = struct
  module H = Model.History.Make (A)
  module At = Model.Atomicity.Make (A)

  let reconstruct ~obj ~decode_inv ~decode_res (entries : Trace.entry list) : H.t =
    List.filter_map
      (fun (e : Trace.entry) ->
        if e.obj <> obj then None
        else
          let q = Model.Txn.make e.txn in
          match e.event with
          | Trace.Invoke c -> Option.map (fun i -> H.Invoke (q, i)) (decode_inv c)
          | Trace.Respond c -> Option.map (fun r -> H.Respond (q, r)) (decode_res c)
          | Trace.Commit ts -> Some (H.Commit (q, ts))
          | Trace.Abort -> Some (H.Abort q)
          | Trace.Lock_refused _ | Trace.Blocked | Trace.Retry
          | Trace.Horizon_advanced _ | Trace.Forgotten _ ->
            None)
      entries

  (* The precedes-inclusion check scans the history once per committed
     pair; past ~100 committed transactions that dominates everything
     else, so it is reserved for test-sized histories. *)
  let precedes_check_limit = 100

  let check ?(online = false) (h : H.t) =
    match H.well_formed h with
    | Error e -> Error ("ill-formed history: " ^ e)
    | Ok () ->
      if
        List.length (H.committed h) <= precedes_check_limit
        && not (H.timestamps_respect_precedes h)
      then Error "timestamp generation violates precedes(H) <= TS(H)"
      else if not (At.hybrid_atomic h) then Error "history is not hybrid atomic"
      else if online && not (At.online_hybrid_atomic h) then
        Error "history is not online hybrid atomic"
      else Ok ()
end
