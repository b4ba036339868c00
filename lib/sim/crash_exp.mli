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
  c_id : string;  (** the workload's {!Workload.t} [id] *)
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

val run :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?group_commit:bool ->
  dir:string ->
  Workload.t ->
  run
(** [run ~dir w] runs the first row of [w] (the paper's relation;
    [Invalid_argument] unless a whole object) at [scale] (default
    {!Driver.quick_scale}) against the log [dir/<id>.wal] ([<id>] is
    [w.id] in lower case), then recovers every kill point of it.  [group_commit] (default [true]) selects the
    log's sync mode ({!Wal.Log.create}): both modes must recover
    identically at every kill point, since batching changes {e when}
    records reach disk but never their order. *)

val all :
  ?scale:Driver.scale ->
  ?seed:int ->
  ?group_commit:bool ->
  dir:string ->
  unit ->
  run list
(** {!run} on {!Workload.queue_mixed} (the producer/consumer FIFO
    queue), {!Workload.semiqueue} (the same load on a SemiQueue —
    nondeterministic [Rem] makes the recovered value a state {e set},
    exercising set-equivalence) and {!Workload.account}, each under the
    hybrid relation. *)
