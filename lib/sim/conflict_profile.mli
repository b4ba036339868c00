(** Deterministic concurrency profile of a conflict relation.

    Timing-based measurements depend on the machine; this module gives
    the machine-independent quantity the paper's claims are really about:
    how likely two concurrent operations (or transactions) are to be
    forced to serialize.  For an operation mix given by weights, the
    {e op conflict probability} is the probability that two operations
    drawn independently from the mix conflict; the {e transaction
    conflict probability} for length-[len] transactions treats each of
    the [len × len] op pairs independently (an upper-bound approximation,
    exact when conflicts are rare). *)

(** Zipfian cell-key selection for workload generators.

    Generators have always drawn {e which object} to hit but never
    {e which cell key} within it.  [Keys] draws keys from Zipf([skew])
    over [\[0, n)]: skew [0.] is uniform (fully partitionable traffic),
    large skew concentrates on key 0 (contended-single-key traffic), so
    both locking-granularity regimes are reachable from the [--key-skew]
    knob.  Draws are pure hashes of [(seed, domain, seq, k)] — the same
    seed-determinism contract as the value generator. *)
module Keys : sig
  type t

  val make : skew:float -> n:int -> t
  (** Precompute the inverse CDF.  [skew >= 0.], [n > 0]. *)

  val n : t -> int
  val skew : t -> float

  val draw : t -> seed:int -> domain:int -> seq:int -> k:int -> int
  (** A key in [\[0, n)], a pure function of all five inputs. *)

  val weight : t -> int -> float
  (** The probability of one key. *)

  val collision : t -> float
  (** [Σ pᵢ²] — the probability two independent draws hit the same key;
      the analytic contention factor that multiplies an op-level
      conflict probability under key-restricted locking. *)
end

module Make (A : Spec.Adt_sig.BOUNDED) : sig
  type op = A.inv * A.res

  val op_conflict_probability : weights:(op -> float) -> (op -> op -> bool) -> float
  (** [Σ w(p)·w(q)·conflict(p,q) / (Σ w)²] over the universe. *)

  val txn_conflict_probability :
    weights:(op -> float) -> len:int -> (op -> op -> bool) -> float
  (** [1 - (1 - p_op)^(len²)]. *)

  val uniform : op -> float
  (** Weight 1 for every operation. *)
end
