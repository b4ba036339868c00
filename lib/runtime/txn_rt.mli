(** Runtime transaction handles.

    A transaction is executed by exactly one thread of control (the model
    disallows intra-transaction concurrency), so the handle itself needs
    no internal locking beyond the status cell, which other threads read
    through the objects.

    A handle accumulates a {e participant} per touched object; committing
    distributes the commit timestamp to every participant and aborting
    notifies them to discard intentions and release locks — the paper's
    commit/abort events.  Atomic commitment (a transaction never commits
    at some objects and aborts at others) holds by construction: the
    decision is taken once, on the handle, before any participant is
    notified. *)

type t

type participant = {
  name : string;
  on_commit : Model.Timestamp.t -> unit;
  on_abort : unit -> unit;
}

exception Abort_requested of string
(** Raised inside a transaction body to abort the transaction: by an
    object wrapper when wait-die kills the transaction or it is already
    aborted (an orphan), or by the body itself.  The manager catches it,
    sends aborts, and restarts the body. *)

val fresh : ?id:int -> ?priority:int -> unit -> t
(** A handle with a process-unique id, in state [`Active].  [priority]
    is the wait-die seniority (smaller = older = wins conflicts); it
    defaults to the fresh id and is preserved by the manager across
    abort-and-restart, so a restarted transaction eventually becomes
    the oldest in the system and cannot starve.

    [id] lets a distributed coordinator give every shard branch of one
    global transaction the {e same} id (drawn once with {!fresh_id}):
    per-shard traces then stitch by transaction id, and wait-die treats
    all branches as one transaction.  Such a handle joins the id's
    registry entry and takes its priority; the id resolves until its
    last holder completes.  An [id] with no entry gets one, and
    [Invalid_argument] if another live id holds its registry cell. *)

exception Registry_full
(** Raised by a draw ({!fresh} or {!restart} without [id], {!fresh_id})
    when all 8192 registry cells are held: a handle, a {!fresh_id} hold
    or an anchor keeps its id's cell. *)

val fresh_id : ?priority:int -> unit -> int
(** Draw an id without a handle — the global id a coordinator passes to
    each branch's [fresh ~id] — and hold its registry entry, with
    [priority] (default: the id), until {!release_id}. *)

val release_id : int -> unit
(** Drop {!fresh_id}'s hold; the id resolves while a handle made with
    it is live. *)

(** {2 Anchors}

    A restarted transaction stays live between its attempts: the
    restart pause of a transaction that lost to it waits for the whole
    transaction, not only the attempt it lost to.  Its manager anchors
    it when its first attempt aborts, and its restarts are made with
    {!restart}. *)

val anchor : priority:int -> unit
(** Flag the registry entry of the transaction's first attempt, whose
    id is [priority]: {!anchored} holds until {!release_anchor}, and
    {!priority_of_id} still reads the attempt as gone once it completes.
    Call it before the aborting attempt's abort reaches any object. *)

val anchored : priority:int -> bool
(** Whether the transaction with [priority] holds an anchor. *)

val restart : ?id:int -> priority:int -> unit -> t
(** [fresh ?id ~priority ()] for a restart of an anchored transaction:
    its {!commit} releases the anchor after the attempt leaves the
    registry and before any participant is notified.  Its abort leaves
    the anchor in place. *)

val release_anchor : priority:int -> unit
(** Release an anchor.  A committing {!restart} has released it
    already; [Retry.until_commit] calls this when the transaction ends,
    to cover the ends that commit no restart (an exception out of the body, a
    lost durability point, a body that touched nothing).  A no-op once
    released. *)

val id : t -> int
val priority : t -> int

val priority_of_id : int -> int option
(** Look up the priority of a live (active) transaction by id; [None]
    once it completes.  Used by objects to apply wait-die against a lock
    holder they only know by id. *)

val model_txn : t -> Model.Txn.t
(** The handle as a formal-model transaction (for history recording). *)

val status : t -> [ `Active | `Committed of Model.Timestamp.t | `Aborted ]

val fresh_object_key : unit -> int
(** Process-unique keys for participant registration.  Objects must use
    this (never a per-module counter): registration is idempotent per
    key, so two objects sharing a key would silently drop one
    registration and leak locks. *)

val add_participant : t -> key:int -> participant -> unit
(** Register the object identified by [key]; idempotent per key.  An
    object registers {e before} it records anything for the
    transaction, so an abort from another domain either finds it in
    the list or has already closed the list: registering with an
    aborted transaction raises {!Abort_requested}, and with a committed
    one [Invalid_argument]. *)

val has_participant : t -> key:int -> bool
(** Whether the object identified by [key] is registered — lets an
    object build its participant only on first touch. *)

val participant_count : t -> int
(** Registered participants of an active transaction; 0 once it has
    completed. *)

val commit : t -> Model.Timestamp.t -> unit
(** Mark committed, leave the registry (and, for a {!restart}, release
    the anchor), then notify every participant.  Raises
    [Invalid_argument] if not active.  The status and the participant
    list change in one atomic step, so a commit and an abort racing
    from two domains cannot both notify. *)

val abort : t -> unit
(** Mark aborted and notify every participant.  No-op when already
    aborted; raises [Invalid_argument] when committed.  Safe to call
    from a domain other than the one running the transaction. *)
