(* Retry scheduling: park blocked transactions, wake them on lock
   release.

   The pre-rework retry loop slept on a jittered quantum and re-polled:
   a released lock was not observed until the loser's next poll, and
   under contention every sleeping loser woke on its own schedule
   whether or not anything had changed.  This module replaces the sleep
   with a park/notify rendezvous:

   - A refused transaction {e registers} a waiter on the contended
     object's bucket, re-attempts once (closing the classic
     register/check/park race: a release that happened before the
     registration is seen by the re-attempt; one that happens after
     finds the waiter in the bucket), and then {e parks}.
   - A releasing transaction ({!Atomic_obj}'s commit/abort paths)
     {e notifies} the object: it drains the bucket and delivers every
     waiter for the object itself.  An empty bucket costs the notifier
     one atomic read, so the no-conflict fast path stays free.
   - Parking is a timed wait on a per-domain self-pipe
     ([Unix.select] — the stdlib [Condition] has no timed wait), so a
     missed signal can delay a waiter by at most its timeout, never
     strand it.  OCaml's runtime locks per domain, so one domain
     parks at most one transaction at a time and a single self-pipe per
     live domain suffices.

   Buckets and the free list of pipes are Treiber lists.  Records are
   immutable where CAS'd (physical equality, fresh allocations — no
   ABA). *)

let n_buckets = 256 (* power of two; waiter buckets per object key *)

type park_slot = { rd : Unix.file_descr; wr : Unix.file_descr }

type waiter = {
  w_txn : int;
  w_obj : int;
  w_state : int Atomic.t; (* 0 waiting, 1 signalled, 2 cancelled *)
  w_slot : park_slot;
}

type ticket = waiter

(* ---- counters (plain atomics; see Lockstat for why not Obs.Metrics) ---- *)

let n_parks = Atomic.make 0
let n_wakes = Atomic.make 0
let n_timeouts = Atomic.make 0
let n_notifies = Atomic.make 0

type stats = { parks : int; wakes : int; steals : int; timeouts : int; notifies : int }

let stats () =
  {
    parks = Atomic.get n_parks;
    wakes = Atomic.get n_wakes;
    steals = 0;
    timeouts = Atomic.get n_timeouts;
    notifies = Atomic.get n_notifies;
  }

(* ---- per-domain park slots ----

   Each live domain holds its own self-pipe: two parkers sharing one
   could eat each other's wake bytes, and the victim would sleep to its
   full timeout.  A domain takes a pipe pair from the free list on first
   use (or creates one) and returns it at exit.  Pipes are never closed:
   a waiter signalled after its domain exited writes one stale byte into
   a recycled pipe, which the next park on it drains and ignores. *)

let free_slots : park_slot list Atomic.t = Atomic.make []

let rec pop_slot () =
  match Atomic.get free_slots with
  | [] ->
    let rd, wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    { rd; wr }
  | s :: rest as cur -> if Atomic.compare_and_set free_slots cur rest then s else pop_slot ()

let rec push_slot s =
  let cur = Atomic.get free_slots in
  if not (Atomic.compare_and_set free_slots cur (s :: cur)) then push_slot s

let slot_key : park_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = pop_slot () in
      Domain.at_exit (fun () -> push_slot s);
      s)

let my_slot () = Domain.DLS.get slot_key
let park_fd () = (my_slot ()).rd

let drain slot =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read slot.rd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let signal_slot slot =
  match Unix.write_substring slot.wr "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    () (* pipe buffer full: a wake byte is already pending *)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Deliver a wake-up: claim the waiter (0 -> 1) and poke its pipe.
   Claiming first means a cancelled or already-woken waiter costs
   nothing and at most one byte per delivered signal. *)
let deliver w =
  if Atomic.compare_and_set w.w_state 0 1 then begin
    Atomic.incr n_wakes;
    signal_slot w.w_slot
  end

(* ---- waiter buckets ---- *)

let buckets : waiter list Atomic.t array = Array.init n_buckets (fun _ -> Atomic.make [])

let bucket_for obj = buckets.(obj land (n_buckets - 1))

let rec bucket_push b w =
  let cur = Atomic.get b in
  if Atomic.compare_and_set b cur (w :: cur) then () else bucket_push b w

let register ~obj ~txn =
  let w = { w_txn = txn; w_obj = obj; w_state = Atomic.make 0; w_slot = my_slot () } in
  bucket_push (bucket_for obj) w;
  w

let cancel w = ignore (Atomic.compare_and_set w.w_state 0 2 : bool)

(* Wake everything parked on [obj].  Waiters for colliding keys go back
   on the bucket while still live; cancelled leftovers are dropped. *)
let notify ~obj =
  let b = bucket_for obj in
  if Atomic.get b != [] then begin
    Atomic.incr n_notifies;
    List.iter
      (fun w ->
        if w.w_obj = obj then deliver w
        else if Atomic.get w.w_state = 0 then bucket_push b w)
      (Atomic.exchange b [])
  end

(* Timed wait on the ticket: returns as soon as a release signals us, at
   the latest after [timeout].  The caller must have re-attempted after
   registering (see module comment); a signal that raced our entry is
   caught by the state check before and the pipe byte during select.
   A byte can also belong to an earlier waiter on this pipe (its park
   saw the state before the notifier wrote the byte), so each wake of
   [select] drains the pipe and re-checks the state, and only the
   deadline ends the wait as a timeout.  Draining cannot hide this
   waiter's own signal: its state turns 1 before its byte is written. *)
let park w ~timeout =
  Atomic.incr n_parks;
  let signalled () = Atomic.get w.w_state = 1 in
  let finish () =
    (* Settle the state: 1 stays (woken), 0 becomes 2 (expired). *)
    if Atomic.compare_and_set w.w_state 0 2 then begin
      Atomic.incr n_timeouts;
      `Timeout
    end
    else `Woken
  in
  drain w.w_slot;
  if signalled () then finish ()
  else begin
    if Obs.Span.enabled () then
      Obs.Span.park ~txn:w.w_txn ~obj:w.w_obj
        ~timeout_ns:(int_of_float (timeout *. 1e9));
    let deadline = Obs.Clock.now_ns () + int_of_float (timeout *. 1e9) in
    let rec wait () =
      let left = deadline - Obs.Clock.now_ns () in
      if left > 0 then begin
        (match Unix.select [ w.w_slot.rd ] [] [] (Obs.Clock.ns_to_s left) with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drain w.w_slot;
        if not (signalled ()) then wait ()
      end
    in
    wait ();
    let r = finish () in
    if Obs.Span.enabled () then
      Obs.Span.unpark ~txn:w.w_txn ~woken:(match r with `Woken -> true | `Timeout -> false);
    r
  end
