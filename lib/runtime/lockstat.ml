(* Mutex-acquisition accounting for the lock-free hot path.

   The hot-path rework (atomic timestamp allocation, CAS lock machine,
   lock-free priority registry) claims the no-conflict transaction path
   takes no mutex at all.  That claim is only checkable if every mutex
   acquisition that remains — Atomic_obj's ordered (trace/WAL/record)
   sections and exclusive publishes after repeated lost CASes, and
   Manager's WAL-ordering section, its only mutex — counts itself here
   (Txn_rt's priority registry owns no mutex).  The bench gate
   (`--hotpath-only`) then asserts the delta across a no-conflict
   WAL-off workload is exactly zero.

   These are plain process-wide atomics, deliberately not Obs.Metrics
   counters: the gate must run with observability disabled (the traced
   path is a legitimate mutex user), so the accounting cannot live
   behind the Obs.Control switch. *)

let obj_locks = Atomic.make 0
let mgr_locks = Atomic.make 0

let count_obj () = Atomic.incr obj_locks
let count_mgr () = Atomic.incr mgr_locks

type snapshot = { s_obj : int; s_mgr : int }

let snapshot () = { s_obj = Atomic.get obj_locks; s_mgr = Atomic.get mgr_locks }

let diff ~before ~after =
  { s_obj = after.s_obj - before.s_obj; s_mgr = after.s_mgr - before.s_mgr }

let total s = s.s_obj + s.s_mgr

(* Baseline mode for apples-to-apples measurement: when set, the
   runtime routes every operation through the pre-rework mutex paths
   (Atomic_obj runs every update under its mutex, Manager serializes draws behind
   a mutex even without a WAL).  The hotpath bench reports the ratio
   fast/forced-slow as the speedup attributable to lock elision alone,
   on identical hardware in the same process. *)
let force_slow_flag = Atomic.make false
let set_force_slow b = Atomic.set force_slow_flag b
let force_slow () = Atomic.get force_slow_flag
