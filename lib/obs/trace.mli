(** Structured trace ring buffer of protocol events.

    Every entry tags a protocol event with the emitting object's key and
    the acting transaction's id, both plain ints so the ring is generic
    over data types, plus a monotonic-clock timestamp ({!Clock}) taken
    at emission — the raw material for blocked-time accounting
    ({!Attrib}), wait-for analysis ({!Waitfor}) and timeline export
    ({!Export}).  Invocation and response payloads are carried as small
    {e interned codes}: the emitting object assigns codes in order of
    first appearance and keeps the decode table ([Runtime.Atomic_obj]
    does this per object), so the ring never stores ADT values and the
    fast path allocates only the entry record.

    Writers claim a slot with one [fetch_and_add] and store the entry —
    lock-free, multi-domain safe.  When the ring wraps, the oldest
    entries are overwritten ({!dropped} counts them); {!entries} returns
    the surviving window, oldest first.  For one object all emissions
    happen under that object's mutex, so the window restricted to an
    object is a faithful suffix of its event order — which is what
    {!Replay} reconstructs histories from. *)

type refusal = { holder : int option; requested : int; held : int }
(** Attribution payload of a refused lock: the transaction holding the
    conflicting lock (when known), and the {e operation-pair} codes —
    [requested] is the operation whose lock was requested, [held] the
    already-locked operation it conflicts with, both interned per object
    in a code space separate from invocation/response codes ({!no_op}
    when unknown).  This is what turns a refusal count into a
    per-Conflict-entry attribution: each refusal names the exact cell of
    the conflict relation that fired. *)

type event =
  | Invoke of int  (** invocation, by interned code *)
  | Respond of int
      (** chosen response, by interned code; its lock is granted and
          recorded with it *)
  | Lock_refused of refusal  (** lock conflict, with attribution *)
  | Blocked  (** no legal response in the view (partial operation) *)
  | Retry  (** the retry loop is about to re-attempt a refused invocation *)
  | Commit of int  (** commit event with its timestamp *)
  | Abort
  | Horizon_advanced of int  (** compaction folded up to this timestamp *)
  | Forgotten of int
      (** cumulative count of committed transactions folded into the
          version after this fold — never decreases (Theorem 24) *)

type entry = { seq : int; time : int; obj : int; txn : int; event : event }
(** [time] is {!Clock.now_ns} at emission: monotonic nanoseconds,
    comparable across objects and domains within the process. *)

val no_op : int
(** Sentinel ([-1]) for an unknown operation code in a {!refusal}. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh ring.  [capacity] (default 65536) is rounded up to a power
    of two, minimum 8. *)

val global : t
(** The default sink used by instrumentation when no explicit sink is
    attached (gated on {!Control.enabled}). *)

val emit : t -> obj:int -> txn:int -> event -> unit

val entries : t -> entry list
(** The current window, oldest first.  Entries being overwritten
    concurrently with the read are skipped. *)

val dropped : t -> int
(** How many entries have been overwritten since creation/{!clear}. *)

val cursor : t -> int
(** Total entries ever emitted — the monotone write position.  An
    incremental reader ({!Sampler}) compares cursors across polls to
    decide whether anything new arrived. *)

val capacity : t -> int

val clear : t -> unit
(** Reset to empty.  Not safe against concurrent writers; call when
    quiescent. *)

val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit
