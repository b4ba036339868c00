(** The appendix's Avalon/C++ Account, transliterated to OCaml: the
    equivalence oracle of [test_avalon] and [test_orphans].

    This is the paper's worked example of a {e type-specific efficient
    implementation} of the hybrid protocol.  Instead of keeping generic
    intentions lists, the net effect of a transaction's Credits, Posts
    and Debits is compressed into a single affine transformation
    [balance ↦ mul * balance + add]; the committed state below the
    horizon is a single integer balance; and locks are mode-based
    ([CREDIT]/[POST]/[DEBIT]/[OVERDRAFT]) with the Figure 4-5 conflicts
    [CREDIT–OVERDRAFT], [POST–OVERDRAFT] and [DEBIT–DEBIT].

    The test suite checks this implementation observationally equivalent
    to the generic engine {!Atomic_obj.Make (Adt.Account)} instantiated
    with [Adt.Account.conflict_hybrid].

    As in {!Adt.Account}, [post p] multiplies the balance by the integer
    [1 + p] (exact arithmetic; see DESIGN.md). *)

open Runtime

type t

val create : ?name:string -> unit -> t
val name : t -> string

val try_credit :
  t -> Txn_rt.t -> int -> (unit, [ `Conflict of Retry.conflict option ]) result

val try_post :
  t -> Txn_rt.t -> int -> (unit, [ `Conflict of Retry.conflict option ]) result

val try_debit :
  t -> Txn_rt.t -> int -> (bool, [ `Conflict of Retry.conflict option ]) result
(** [Ok true] — debited; [Ok false] — overdraft (balance unchanged, an
    [OVERDRAFT] lock is acquired); [Error `Conflict] — the appendix's
    [MAYBE]: lock conflicts leave the account status ambiguous, retry. *)

val credit : t -> Txn_rt.t -> int -> unit
val post : t -> Txn_rt.t -> int -> unit
val debit : t -> Txn_rt.t -> int -> bool
(** Waiting wrappers ({!Retry.run}); raise {!Txn_rt.Abort_requested}
    when wait-die kills the transaction. *)

val committed_balance : t -> int
(** Balance reflecting every committed transaction (the forgotten balance
    plus remembered committed intentions). *)

val forgotten_balance : t -> int
(** The compacted balance only — committed transactions at or below the
    horizon. *)

val remembered_intents : t -> int
(** Committed transactions not yet folded (diagnostic for compaction
    tests). *)
