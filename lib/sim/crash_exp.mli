(** Crash-recovery experiments: deterministic kill-point fault
    injection over real concurrent runs.

    Each experiment runs a concurrent workload durably (one object, one
    manager, one log), then simulates a [kill -9] at every deterministic
    kill point of the finished log image ({!Wal.Crash}): just before and
    after each commit record, mid-append, and with the tail torn.  For
    every image, recovery through the latest surviving checkpoint must
    be observationally equivalent to a reference replay of that image's
    committed prefix from the initial state — and the clean image must
    recover exactly the state set the live object ended with. *)

type run = {
  c_id : string;
  c_committed : int;  (** transactions committed in the live run *)
  c_records : int;  (** records in the clean log image *)
  c_live : int;  (** live-set size at close (the truncation bound) *)
  c_kill_points : int;
  c_failures : (string * string) list;  (** (kill point, reason) *)
  c_final : (unit, string) result;
      (** clean-log recovery vs the live object's committed states *)
}

val ok : run -> bool
val pp_run : Format.formatter -> run -> unit

val queue :
  ?scale:Driver.scale -> ?seed:int -> ?group_commit:bool -> dir:string -> unit -> run
(** Producer/consumer FIFO queue under the hybrid relation.
    [group_commit] (default [true]) selects the log's sync mode
    ({!Wal.Log.create}): both modes must recover identically at every
    kill point, since batching changes {e when} records reach disk but
    never their order. *)

val semiqueue :
  ?scale:Driver.scale -> ?seed:int -> ?group_commit:bool -> dir:string -> unit -> run
(** Producer/consumer SemiQueue — nondeterministic [Rem] makes the
    recovered value a state {e set}, exercising set-equivalence. *)

val account :
  ?scale:Driver.scale -> ?seed:int -> ?group_commit:bool -> dir:string -> unit -> run
(** Credit/debit mix on one account. *)

val all :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?group_commit:bool ->
  dir:string ->
  unit ->
  run list
(** All three, writing logs under [dir]. *)
