(** Deterministic kill-point fault injection.

    A [kill -9] can stop the process at any byte of the log; the
    interesting points are enumerable from a finished run's log image:
    just before and after each commit record, halfway through each
    record's frame (a torn append), and with the final block truncated.
    {!image} produces the log bytes a crash at that point would leave on
    stable storage; feeding them to {!Recover} and comparing against the
    committed prefix is the recovery soundness experiment. *)

type kill_point =
  | Before_record of int  (** crash just before appending record [i] *)
  | After_record of int  (** crash right after record [i] is durable *)
  | Mid_record of int  (** torn write: only half of record [i]'s frame *)
  | Torn_tail of int  (** final [k] bytes lost *)

val pp_kill_point : Format.formatter -> kill_point -> unit

val kill_points : ?limit:int -> string -> kill_point list
(** All deterministic kill points of a clean log image; with [limit],
    every before/after-commit point is kept and the torn-write points are
    sampled at a deterministic stride. *)

val image : string -> kill_point -> string
(** The bytes surviving a crash at the kill point.  [image raw] walks
    the frames of [raw] once; apply it once and reuse the result for
    every kill point of one image. *)

val cut : string -> at:int -> string
