(** Mutex-acquisition accounting for the lock-free hot path.

    Every remaining mutex acquisition in the runtime's transaction path
    self-reports here ({!count_obj} in {!Atomic_obj}'s ordered sections
    and exclusive publishes after repeated lost CASes,
    {!count_mgr} in {!Manager}'s WAL section; {!Txn_rt}'s
    priority registry owns no mutex), so the bench gate can assert that
    a no-conflict WAL-off workload takes {e zero} mutexes end to end.
    Plain process-wide atomics, independent of the {!Obs.Control}
    switch (the gate runs with observability off). *)

val count_obj : unit -> unit
val count_mgr : unit -> unit

type snapshot = { s_obj : int; s_mgr : int }

val snapshot : unit -> snapshot
val diff : before:snapshot -> after:snapshot -> snapshot
val total : snapshot -> int

val set_force_slow : bool -> unit
(** Baseline mode: route all operations through the pre-rework mutex
    paths ({!Atomic_obj} runs every update under its mutex; {!Manager} serializes
    draws behind a mutex even WAL-off).  For same-process before/after
    comparison in the hotpath bench; not for production use. *)

val force_slow : unit -> bool
