(** Crash recovery: rebuild every object from the log.

    The LOCK protocol's commit rule is exactly redo logging: a committed
    transaction's intentions, applied in commit-timestamp order on top of
    the version, give the committed state (Section 5.1, Definition 21's
    [s.permanent]).  Recovery therefore needs no undo — uncommitted and
    aborted intentions are simply discarded, mirroring how the in-memory
    machine discards them on abort. *)

val objects : Log.record list -> (string * string) list
(** Declared objects, (name, ADT type name), in order of first
    declaration. *)

val committed : Log.record list -> (int * int) list
(** (txn, timestamp) of every transaction whose commit record survived,
    ascending by timestamp — the replay order. *)

val aborted : Log.record list -> int list

val prepared : Log.record list -> (int * int * int) list
(** (local txn, global txn, prepared timestamp) of every surviving
    [Prepare] record. *)

val decisions : Log.record list -> (int * int) list
(** (global txn, decided timestamp) of every surviving [Decide]
    record — what a coordinator's decision log contributes to
    participant resolution. *)

type resolution = { r_txn : int; r_gtxn : int; r_outcome : [ `Commit of int | `Abort ] }

val pp_resolution : Format.formatter -> resolution -> unit

val resolve :
  decided:(int -> int option) -> Log.record list -> Log.record list * resolution list
(** Patch a participant log's in-doubt transactions ({!prepared} votes
    with no later [Commit]/[Abort] for the local transaction) against the
    coordinator's decision log: a decided global transaction gets the
    [Commit] record (at the {e decided} timestamp — max over all
    participants' prepares) its shard never wrote; an undecided one gets
    an [Abort] (presumed abort).  The patched record list then recovers
    with the ordinary single-shard {!Make.recover}/{!Make.reference}
    path. *)

module Make (D : Codec.DURABLE) : sig
  type outcome = {
    states : D.state list;  (** the recovered committed state set *)
    checkpoint_upto : int option;  (** horizon of the checkpoint used *)
    redone_txns : int;
    redone_ops : int;
    discarded_txns : int;  (** intention-holders without a commit record *)
  }

  val recover : obj:string -> Log.record list -> (outcome, string) result
  (** Checkpoint version (or initial state) + timestamp-ordered redo of
      committed intentions above the checkpoint.  [Error] on a corrupt
      payload or an illegal redo — both mean the log does not describe a
      reachable state and recovery must not silently proceed. *)

  val reference : obj:string -> Log.record list -> (D.state list, string) result
  (** The same committed prefix replayed from [D.initial] {e ignoring
      checkpoints} — an independent code path used to cross-check that
      checkpoint truncation (Theorem 24) loses nothing. *)

  val equal_states : D.state list -> D.state list -> bool
  (** Set equality up to [D.equal_state] — observational equivalence of
      recovered and reference states (Definition 25: canonical state sets
      determine all future legality). *)

  val pp_states : Format.formatter -> D.state list -> unit
end
