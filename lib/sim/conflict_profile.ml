(* ---- Zipfian cell-key selection ----

   Workload generators have always drawn which OBJECT to hit but never
   which CELL KEY within it — every operation landed on the same couple
   of values, which makes a key-partitioned object look permanently
   contended and a whole-object one look no worse.  [Keys] draws keys
   from a Zipf(skew) distribution over [0, n): skew 0 is uniform (the
   fully partitionable regime), large skew concentrates mass on key 0
   (the contended-single-key regime), so both ends of the locking
   granularity trade-off are reachable from one knob.  Draws are pure
   hashes of (seed, domain, seq, k) — the same determinism contract as
   the value generator: reruns with one seed reproduce the key sequence
   exactly. *)

module Keys = struct
  type t = { n : int; skew : float; cdf : float array }

  let make ~skew ~n =
    if n <= 0 then invalid_arg "Conflict_profile.Keys.make: n must be positive";
    if skew < 0. then invalid_arg "Conflict_profile.Keys.make: skew must be >= 0";
    let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** skew)) in
    let total = Array.fold_left ( +. ) 0. w in
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i wi ->
        acc := !acc +. (wi /. total);
        cdf.(i) <- !acc)
      w;
    cdf.(n - 1) <- 1.;
    { n; skew; cdf }

  let n t = t.n
  let skew t = t.skew

  let weight t i =
    if i < 0 || i >= t.n then invalid_arg "Conflict_profile.Keys.weight";
    if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

  (* Probability two independent draws collide on one key: the analytic
     key-contention factor multiplying an op-level conflict probability
     under key-restricted locking. *)
  let collision t =
    let acc = ref 0. in
    for i = 0 to t.n - 1 do
      let p = weight t i in
      acc := !acc +. (p *. p)
    done;
    !acc

  (* Deterministic avalanche mix of (seed, domain, seq, k) to [0, 1). *)
  let unit_float ~seed ~domain ~seq ~k =
    let h = ref ((seed * 0x9e3779b9) + 0x2545f) in
    let absorb v =
      h := (!h lxor ((v + 0x7f4a7c15) * 0x85ebca6b)) * 0xc2b2ae35 land max_int;
      h := !h lxor (!h lsr 13)
    in
    absorb domain;
    absorb seq;
    absorb k;
    float_of_int (!h land 0x3fffffff) /. 1073741824.

  let draw t ~seed ~domain ~seq ~k =
    let u = unit_float ~seed ~domain ~seq ~k in
    (* First index with cdf >= u. *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end

module Make (A : Spec.Adt_sig.BOUNDED) = struct
  type op = A.inv * A.res

  let op_conflict_probability ~weights rel =
    let total = List.fold_left (fun acc op -> acc +. weights op) 0. A.universe in
    if total <= 0. then invalid_arg "Conflict_profile: weights sum to zero";
    let mass =
      List.fold_left
        (fun acc p ->
          List.fold_left
            (fun acc q -> if rel p q then acc +. (weights p *. weights q) else acc)
            acc A.universe)
        0. A.universe
    in
    mass /. (total *. total)

  let txn_conflict_probability ~weights ~len rel =
    let p = op_conflict_probability ~weights rel in
    1. -. ((1. -. p) ** float_of_int (len * len))

  let uniform _ = 1.
end
