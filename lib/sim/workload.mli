(** The EXP-* workloads, each defined once.

    An experiment is one workload run under several conflict relations.
    Each relation row names its data type and relation, the
    machine-independent probability that two operations of the
    workload's mix conflict under that relation ({!Conflict_profile}),
    and the row's {!script}: a prefill and a pure transaction generator
    of [(seed, worker, txn)] that works at any scale.  Three runners
    read these definitions: {!Experiments} on real domains (wall clock),
    {!Det_experiments} under {!Det_sim} (virtual time, 4 workers x 25
    transactions), and {!Crash_exp}, which kill-point-tests the first
    row of an experiment.  The first row of every experiment is the
    paper's relation. *)

module type ADT = sig
  include Spec.Adt_sig.BOUNDED

  val codec : (inv, res, state) Wal.Codec.t
end

type ('i, 'r) target =
  | Whole :
      (module ADT with type inv = 'i and type res = 'r) * ('i * 'r -> 'i * 'r -> bool)
      -> ('i, 'r) target
      (** one {!Runtime.Atomic_obj} of the data type, running the given
          conflict relation *)
  | Cells : int -> (Adt.Directory.inv, Adt.Directory.res) target
      (** a {!Part.Pdir} of that many independently locked cells *)

type 'i script = {
  prefill : workers:int -> txns:int -> 'i list;
      (** committed as one transaction before the run starts, sized for
          [workers] workers running [txns] transactions each *)
  txn : seed:int -> workers:int -> worker:int -> int -> 'i list;
      (** [txn ~seed ~workers ~worker k]: the invocations of [worker]'s
          transaction [k], each followed by think time when run *)
}

type row =
  | Row : {
      label : string;
      target : ('i, 'r) target;
      conflict_prob : float;
      script : 'i script;
    }
      -> row

type t = {
  id : string;
  title : string;
  ops : int;  (** invocations per transaction (an EXP-ACCOUNT Post runs 2) *)
  params : string;  (** workload knobs beyond the run size; [""] if none *)
  rows : row list;
}

val queue_enq : t
(** EXP-QUEUE-ENQ: enqueue-only transactions of 4 enqueues. *)

val queue_mixed : t
(** EXP-QUEUE-MIXED: the first half of the workers dequeue, the rest
    enqueue, 3 operations per transaction, over a queue stocked with two
    items per dequeue the run will make. *)

val account : t
(** EXP-ACCOUNT: 3-operation credit or debit transactions, alternating
    by [worker + txn], on an account opened with 10{^6}.  Workers 0..3
    each post in their transactions [k < 25] with [k mod 12 = 3 x
    worker], as [[Post 1; Credit 1]]: 9 Posts in all at any scale, since
    each integer [Post 1] doubles the balance. *)

val account_script : Adt.Account.inv script
(** The script of {!account}'s rows. *)

val semiqueue : t
(** EXP-SEMIQ: the EXP-QUEUE-MIXED load on a SemiQueue ([Ins]/[Rem])
    against the FIFO queue under Figures 4-2 and 4-3. *)

val directory : ?key_skew:float -> ?keys:int -> ?cells:int -> unit -> t
(** EXP-DIRECTORY: 4-operation transactions of ~40% Insert / 30% Remove
    / 30% Member over a Zipf([key_skew]) key (default uniform over
    [keys = 64]), through three lock granularities: a whole-object
    machine blind to keys ({!Adt.Directory.conflict_whole_object}), a
    whole-object machine with the key-aware relation, and a
    {!Part.Pdir} of [cells] (default 8) cells.  The key-aware rows'
    [conflict_prob] is the blind one scaled by the Zipf collision factor
    Σp² ({!Conflict_profile.Keys.collision}). *)

val paper : (string * t) list
(** The four experiments of the paper's claims by command-line id, in
    run order: [queue], [queue-mixed], [account], [semiqueue]. *)

val drive :
  Driver.scale ->
  seed:int ->
  mgr:Runtime.Manager.t ->
  (Runtime.Txn_rt.t -> 'i -> unit) ->
  'i script ->
  Driver.result
(** [drive scale ~seed ~mgr invoke script] runs [script] on real
    domains: its prefill as one [mgr] transaction, then {!Driver.run}
    with each invocation followed by {!Driver.think}. *)
