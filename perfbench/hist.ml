(* Log-linear latency histogram over integer nanoseconds.

   Values below 64 get a bucket each; above that every power of two is
   split into 64 equal sub-buckets, so a bucket is at most 1/64 (~1.6%)
   of its value wide.  Quantiles interpolate linearly inside the bucket
   that crosses the target rank.  Recording is one array increment with
   no allocation, and histograms merge by adding counts, so each worker
   domain keeps its own and the reader sums them after the workers
   stop. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let n_buckets = sub + ((Sys.int_size - 1 - sub_bits) * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make n_buckets 0; n = 0 }

let rec msb v e = if v lsr 1 = 0 then e else msb (v lsr 1) (e + 1)

let index v =
  if v < sub then max v 0
  else
    let e = msb v 0 in
    sub + ((e - sub_bits) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

(* [lo, lo + width) is the value range of bucket [i]. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let g = (i - sub) / sub and s = (i - sub) mod sub in
    ((sub + s) lsl g, 1 lsl g)

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let count t = t.n

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n

let merge hs =
  let t = create () in
  List.iter (merge_into t) hs;
  t

(* The [q]-quantile in nanoseconds; 0 for an empty histogram. *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let target = Float.min (float_of_int t.n) (Float.max 0. q *. float_of_int t.n) in
    let rec find i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= target then begin
        let lo, width = bounds i in
        let frac = (target -. float_of_int cum) /. float_of_int c in
        float_of_int lo +. (frac *. float_of_int width)
      end
      else find (i + 1) (cum + c)
    in
    find 0 0
  end

let median_of xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
