(** Escrow-style partitioned Account.

    The balance is the sum of [cells] sub-balances, each a full Account
    cell object under the unmodified Figure 4-5 relation — splitting
    the {e state} where the naive by-amount relation split
    ({!Adt.Account.cell_of_amount}) is provably unsound.  [Credit]
    lands on one round-robin cell; [Post] broadcasts (multiplication
    distributes over the sum); [Debit] tries one cell and falls back to
    a draining sweep whose Overdraft probes take real Figure 4-5 locks,
    making the client-level Overdraft serially correct; partial takes
    are compensated inside the transaction.  Concurrent Debits that fit
    in different cells' sub-balances no longer conflict at all — the
    escrow concurrency gain — while the sweep path degrades to
    whole-account serialization exactly when the money is genuinely
    contended. *)

module A = Adt.Account
module C : module type of Cells.Make (Adt.Account)
module O = C.O

type t

val create :
  ?name:string ->
  ?record:bool ->
  ?trace:Obs.Trace.t ->
  ?wal:Wal.Log.t * (A.inv, A.res, A.state) Wal.Codec.t ->
  ?conflict:(A.op -> A.op -> bool) ->
  cells:int ->
  unit ->
  t
(** [conflict] (default {!Adt.Account.conflict_hybrid}) is installed
    per cell. *)

val invoke : t -> Runtime.Txn_rt.t -> A.inv -> A.res
(** The client-level operation; see the module doc for how each maps to
    per-cell operations.  Multi-cell paths ([Post], the [Debit] sweep)
    acquire locks across cells and rely on the runtime's wait-die
    restart to resolve cross-transaction cycles. *)

val committed_balance : t -> int
(** The logical balance: sum of every cell's committed sub-balance. *)

val name : t -> string
val cells : t -> C.t
val stats : t -> O.stats
val replay_check : ?online:bool -> t -> (unit, string) result
val register_introspection : t -> unit
