(* Seeded transaction inputs.

   Transaction [seq] of worker domain [d] is a pure function of
   (workload, seed, d, seq): a closed loop asks for as many transactions
   as the timed window lets it run, and any prefix of the stream is the
   same on every run with the same seed.  Amounts are 1..9 and accounts
   start at {!initial_balance}, so a Debit never overdraws and the
   balance check in main.ml is exact. *)

type workload = Inmem_private | Inmem_shared | Durable_sharded

let workloads = [ Inmem_private; Inmem_shared; Durable_sharded ]

let name = function
  | Inmem_private -> "inmem-private"
  | Inmem_shared -> "inmem-shared"
  | Durable_sharded -> "durable-sharded"

let of_name s = List.find_opt (fun w -> name w = s) workloads

let initial_balance = 1_000_000_000

type txn =
  | Local of Adt.Account.inv array  (** one manager, one account *)
  | Transfer of int  (** debit the home shard, credit the other one *)

(* Ops per local transaction and the cross-shard share, per workload. *)
let ops_per_txn = function Inmem_private -> 8 | Inmem_shared -> 4 | Durable_sharded -> 3
let cross_per_100 = function Durable_sharded -> 10 | Inmem_private | Inmem_shared -> 0

(* splitmix-style finaliser; constants fit a 63-bit int. *)
let mix z =
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = z * 0x1CE4E5B9BF58476D in
  z lxor (z lsr 32)

let draw ~seed ~domain ~seq k = mix (mix (mix (mix seed + domain) + seq) + k) land max_int

let op ~seed ~domain ~seq k =
  let h = draw ~seed ~domain ~seq (k + 1) in
  let amount = 1 + ((h lsr 1) mod 9) in
  if h land 1 = 0 then Adt.Account.Credit amount else Adt.Account.Debit amount

let txn w ~seed ~domain ~seq =
  if draw ~seed ~domain ~seq 0 mod 100 < cross_per_100 w then
    Transfer (1 + (draw ~seed ~domain ~seq 1 mod 9))
  else Local (Array.init (ops_per_txn w) (op ~seed ~domain ~seq))

let pp_txn ppf = function
  | Local ops ->
    Format.fprintf ppf "local";
    Array.iter (fun i -> Format.fprintf ppf " %a" Adt.Account.pp_inv i) ops
  | Transfer a -> Format.fprintf ppf "transfer %d" a
