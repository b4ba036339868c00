(* The span vocabulary: preassigned flight-recorder event codes for
   every phase transition a transaction goes through, from [Begin] to
   its commit/abort, including the 2PC legs a cross-shard transaction
   adds.  Spans are reassembled offline (or by the online aggregator in
   {!Profile}) by grouping records on the transaction id — cross-shard
   branches share the global id ({!Runtime.Txn_rt} refcounts it), so one
   stitched span covers every shard a transaction touched. *)

let c_begin = 1 (* local attempt starts; aux16 = shard stripe *)
let c_commit = 2 (* local attempt committed; arg = commit ts *)
let c_abort = 3 (* local attempt aborted *)
let c_lock_wait = 4 (* first refusal: the retry loop starts waiting; aux32 = obj *)
let c_lock_resume = 5 (* the retry loop hands back control; aux32 = obj *)
let c_op = 6 (* one ADT operation done; aux32 = obj, aux16 = inv code, arg = ns *)
let c_append = 7 (* commit record appended to the WAL; arg = lsn *)
let c_sync_wait = 8 (* entering the group-commit durability barrier; arg = lsn *)
let c_sync_done = 9 (* barrier passed: the commit record is durable *)
let c_backoff = 10 (* restart backoff sleep between attempts; arg = ns *)
let c_prepare = 11 (* 2PC phase 1 vote starts on shard aux16 *)
let c_prepared = 12 (* vote forced on shard aux16; arg = prepared ts *)
let c_decide = 13 (* coordinator forced the Decide record; arg = decided ts *)
let c_decide_commit = 14 (* shard aux16 applied the decision; arg = ts *)
let c_decide_abort = 15 (* shard aux16 released its prepared branch *)
let c_cross_begin = 16 (* coordinator attempt starts; txn = global id *)
let c_cross_commit = 17 (* coordinator attempt committed; arg = ts *)
let c_cross_abort = 18 (* coordinator attempt aborted *)
let c_fsync = 19 (* a WAL sync leader's fsync; txn = 0, arg = ns *)
let c_park = 20 (* retry scheduler parked the txn; aux32 = obj, arg = timeout ns *)
let c_unpark = 21 (* parked txn resumed; aux16 = 1 woken by a release, 0 timed out *)

let all_codes =
  [
    c_begin; c_commit; c_abort; c_lock_wait; c_lock_resume; c_op; c_append;
    c_sync_wait; c_sync_done; c_backoff; c_prepare; c_prepared; c_decide;
    c_decide_commit; c_decide_abort; c_cross_begin; c_cross_commit;
    c_cross_abort; c_fsync; c_park; c_unpark;
  ]

let name code =
  match code with
  | 1 -> "begin"
  | 2 -> "commit"
  | 3 -> "abort"
  | 4 -> "lock_wait"
  | 5 -> "lock_resume"
  | 6 -> "op"
  | 7 -> "append"
  | 8 -> "sync_wait"
  | 9 -> "sync_done"
  | 10 -> "backoff"
  | 11 -> "prepare"
  | 12 -> "prepared"
  | 13 -> "decide"
  | 14 -> "decide_commit"
  | 15 -> "decide_abort"
  | 16 -> "cross_begin"
  | 17 -> "cross_commit"
  | 18 -> "cross_abort"
  | 19 -> "fsync"
  | 20 -> "park"
  | 21 -> "unpark"
  | c -> Printf.sprintf "code#%d" c

(* Emit helpers: thin shims over {!Flight.emit} so instrumentation
   sites stay one readable line.  All are no-ops unless the recorder is
   armed ({!Flight.recording}); [op] additionally requires the per-op
   detail tier ({!Flight.detailed}) — the always-on tier is sized so a
   WAL-off transaction costs two records. *)

let enabled = Flight.recording
let detailed = Flight.detailed

let txn_begin ~txn ~shard = Flight.emit ~code:c_begin ~aux16:shard ~aux32:0 ~txn ~arg:0
let txn_commit ~txn ~ts = Flight.emit ~code:c_commit ~aux16:0 ~aux32:0 ~txn ~arg:ts
let txn_abort ~txn = Flight.emit ~code:c_abort ~aux16:0 ~aux32:0 ~txn ~arg:0

let lock_wait ~txn ~obj = Flight.emit ~code:c_lock_wait ~aux16:0 ~aux32:obj ~txn ~arg:0

let lock_resume ~txn ~obj =
  Flight.emit ~code:c_lock_resume ~aux16:0 ~aux32:obj ~txn ~arg:0

let op ~txn ~obj ~inv ~dur_ns =
  Flight.emit ~code:c_op ~aux16:inv ~aux32:obj ~txn ~arg:dur_ns

let append ~txn ~lsn = Flight.emit ~code:c_append ~aux16:0 ~aux32:0 ~txn ~arg:lsn
let sync_wait ~txn ~lsn = Flight.emit ~code:c_sync_wait ~aux16:0 ~aux32:0 ~txn ~arg:lsn
let sync_done ~txn = Flight.emit ~code:c_sync_done ~aux16:0 ~aux32:0 ~txn ~arg:0

let backoff ~txn ~sleep_ns =
  Flight.emit ~code:c_backoff ~aux16:0 ~aux32:0 ~txn ~arg:sleep_ns

let prepare ~txn ~shard = Flight.emit ~code:c_prepare ~aux16:shard ~aux32:0 ~txn ~arg:0

let prepared ~txn ~shard ~ts =
  Flight.emit ~code:c_prepared ~aux16:shard ~aux32:0 ~txn ~arg:ts

let decide ~txn ~ts = Flight.emit ~code:c_decide ~aux16:0 ~aux32:0 ~txn ~arg:ts

let decide_commit ~txn ~shard ~ts =
  Flight.emit ~code:c_decide_commit ~aux16:shard ~aux32:0 ~txn ~arg:ts

let decide_abort ~txn ~shard =
  Flight.emit ~code:c_decide_abort ~aux16:shard ~aux32:0 ~txn ~arg:0

let cross_begin ~txn = Flight.emit ~code:c_cross_begin ~aux16:0 ~aux32:0 ~txn ~arg:0

let cross_commit ~txn ~ts =
  Flight.emit ~code:c_cross_commit ~aux16:0 ~aux32:0 ~txn ~arg:ts

let cross_abort ~txn = Flight.emit ~code:c_cross_abort ~aux16:0 ~aux32:0 ~txn ~arg:0
let fsync ~dur_ns = Flight.emit ~code:c_fsync ~aux16:0 ~aux32:0 ~txn:0 ~arg:dur_ns

let park ~txn ~obj ~timeout_ns =
  Flight.emit ~code:c_park ~aux16:0 ~aux32:obj ~txn ~arg:timeout_ns

let unpark ~txn ~woken =
  Flight.emit ~code:c_unpark ~aux16:(if woken then 1 else 0) ~aux32:0 ~txn ~arg:0
