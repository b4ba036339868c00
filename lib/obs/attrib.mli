(** Conflict attribution: fold a trace window into per-object conflict
    matrices and a contention ranking.

    The paper's Definition 3 argument is that a Conflict relation
    strictly weaker than failure-to-commute admits more concurrency; a
    refusal count alone cannot show {e which} entries of the relation
    cost anything.  Every {!Trace.Lock_refused} carries the interned
    (requested-op, held-op) pair, so folding a window attributes each
    refusal — and the wall-clock time the requester then spent blocked —
    to one cell of the installed Conflict relation.  Summing the cells
    gives the relation's {e fired-conflict mass} on that workload: the
    empirical counterpart of the commutativity-vs-dependency gap
    (Theorem 28 guarantees the hybrid relation's mass can only be
    smaller, entry for entry, than commutativity's on the same
    workload).

    {1 Label registry}

    Trace entries carry opaque interned codes; the emitting object is
    the only party that can decode them.  Objects therefore register a
    human-readable label per (object, code-space, code) at interning
    time ([Runtime.Atomic_obj] does this), and reporting here looks the
    labels up — so matrices stay readable after the objects are gone. *)

type kind = Inv | Res | Op
(** The three per-object code spaces used by trace entries:
    invocation codes ({!Trace.Invoke}), response codes
    ({!Trace.Respond}) and operation-pair codes ({!Trace.refusal}). *)

val register_label : obj:int -> kind:kind -> code:int -> string -> unit
(** Record the label for a code; first registration wins.  Thread-safe. *)

val register_object : obj:int -> ?cell:int -> string -> unit
(** Record an object's display name (used by reports and {!Export}).
    [cell] additionally marks the object as one cell of a partitioned
    logical object ({!Spec.Partition}); matrix rows for such objects are
    per-cell rows, and {!object_cell} recovers the grouping. *)

val object_cell : obj:int -> int option
(** The cell key registered for an object, if it is a partition cell. *)

val label : obj:int -> kind:kind -> int -> string
(** The registered label, or ["op#N"]/["inv#N"]/["res#N"] when none. *)

val object_name : obj:int -> string
(** The registered object name, or ["obj#N"]. *)

val export_objects : unit -> (int * string) list
(** Every registered (object key, name), sorted — the flight recorder's
    metadata chunk, so offline decoders can resolve keys. *)

val export_labels : unit -> (int * kind * int * string) list
(** Every registered label as [(obj, kind, code, label)], sorted. *)

(** {1 Conflict matrices} *)

type cell = { refusals : int; blocked_ns : int }
(** One entry of a conflict matrix: how many times this (requested,
    held) operation pair fired a refusal, and the total monotonic-clock
    time transactions spent between such a refusal and the eventual
    grant (or their completion) on that object. *)

type t

val of_entries : Trace.entry list -> t
(** Fold a trace window (oldest first, as {!Trace.entries} returns it).
    A refusal opens a blocked window for its (object, transaction);
    the window closes at that transaction's next [Respond] on the
    object, or its [Commit]/[Abort]; windows still open at the end of
    the trace close at the last entry's timestamp. *)

val total_refusals : t -> int
(** The fired-conflict mass of the window: every refusal, summed over
    all objects and operation pairs. *)

val total_blocked_ns : t -> int

val cells : t -> ((int * int * int) * cell) list
(** Every non-empty matrix cell as [((obj, requested, held), cell)],
    most refusals first. *)

val labelled_cells : t -> ((string * string * string) * cell) list
(** {!cells} with codes resolved through the label registry:
    [((object, requested-op, held-op), cell)], most refusals first.
    Cells from different objects that share all three labels are
    merged. *)

val holders : t -> (int * int) list
(** Contention ranking by lock holder: transaction id to the number of
    refusals it caused while holding a lock, most refusals first.
    Refusals with an unknown holder are not counted. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** Print the top [top] (default 10) labelled cells with refusal counts
    and blocked time. *)
