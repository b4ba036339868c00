type conflict = { holder : int; holder_priority : int option }
type failure = [ `Blocked | `Conflict of conflict option ]

let m_retries = Obs.Metrics.counter "retry.retries"
let m_wait_die = Obs.Metrics.counter "retry.wait_die_deaths"

(* Transactions currently inside a retry loop after at least one
   refusal — the instantaneous contention level the [top] dashboard
   shows.  A gauge, not gated on the observability switch (a toggle
   mid-loop must not strand a phantom waiter). *)
let g_waiting = Obs.Gauge.make "retry_waiting"

let die ~name reason =
  raise (Txn_rt.Abort_requested (Printf.sprintf "%s: %s" name reason))

(* How many attempts spin before parking. *)
let spin_limit = 10

(* Every park ends at a wake-up from a release of its object.  The
   timeout only bounds the cost of a wake-up that never comes: the
   parked loop re-checks and parks again. *)
let backstop = 1e-3

(* The object the current domain's last dying transaction lost a
   conflict on, with the attempt it lost to, that attempt's priority
   and the loser's own priority.  The death site knows them all; the
   restart loop that catches the abort does not, so the hint carries
   them across (one transaction runs per domain at a time).  A pause
   heeds only its own transaction's hint, never one left by a death
   that no restart loop caught.

   The hint stays per domain under the virtual-time simulator too,
   where several transactions run as fibers on one domain: a fiber
   switches only at a [Sched.park], and none lies between the write at
   a death and the read in the next [restart_pause].  The abort unwinds
   through [refused]'s [leave_wait] (a gauge and a span mark), the
   manager's abort — whose participants' releases notify, and notify
   never parks — and [until_commit], straight into the pause. *)
type hint = { obj : int; holder : int; winner : int; loser : int }

let restart_hint : hint option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* The winner's transaction is live while the attempt the loser met is,
   or while the transaction is anchored between its attempts.  The
   attempt is read first: an aborting first attempt anchors its
   transaction before it leaves the registry, so a reader that finds
   the attempt gone finds the anchor. *)
let winner_live h =
  Txn_rt.priority_of_id h.holder <> None || Txn_rt.anchored ~priority:h.winner

let restart_pause ~key =
  let hint = Domain.DLS.get restart_hint in
  match !hint with
  | None -> ()
  | Some h when h.loser <> key -> hint := None
  | Some h ->
    hint := None;
    (* Park on the lost object until a release of it finds the winner's
       transaction done: restarting while it is live only dies again, so
       a release that comes while it is live parks again.  The pause
       waits for a release even when the winner is done already:
       restarting straight after the winner's commit only collides with
       the next transaction of the winner's domain. *)
    let t0 = if Obs.Span.enabled () then Obs.Clock.now_ns () else 0 in
    let rec wait () =
      let ticket = Sched.register ~obj:h.obj ~txn:key in
      ignore (Sched.park ticket ~timeout:backstop : [ `Woken | `Timeout ]);
      if winner_live h then wait ()
    in
    wait ();
    if Obs.Span.enabled () then
      Obs.Span.backoff ~txn:key ~sleep_ns:(Obs.Clock.now_ns () - t0)

(* Anchored in the registry since its first attempt aborted, the
   transaction is released by the restart that commits; the [finally]
   covers the other ends. *)
let until_commit ~priority attempt =
  let rec restart () =
    restart_pause ~key:priority;
    match attempt () with Ok v -> v | Error _ -> restart ()
  in
  Fun.protect ~finally:(fun () -> Txn_rt.release_anchor ~priority) restart

(* Everything after a first refusal: the wait window, wait-die and the
   spin-then-park loop. *)
let refused ?(on_retry = ignore) ~obj ~name ~self attempt failure =
  let my_priority = Txn_rt.priority self in
  let my_id = Txn_rt.id self in
  let waiting = ref false in
  let enter_wait () =
    if not !waiting then begin
      waiting := true;
      Obs.Gauge.incr g_waiting;
      (* One lock-wait window per stalled invocation, however many
         retries it takes: the flight span charges wait→resume, not
         individual poll iterations. *)
      if Obs.Span.enabled () then Obs.Span.lock_wait ~txn:my_id ~obj
    end
  in
  let leave_wait () =
    if !waiting then begin
      Obs.Gauge.decr g_waiting;
      if Obs.Span.enabled () then Obs.Span.lock_resume ~txn:my_id ~obj
    end
  in
  (* Wait-die on the priority {e captured with the refusal}: the object
     resolved the holder's priority inside the same consistent section
     that observed the conflict.  Resolving here instead — by id against
     the live registry, as this loop used to — raced the holder's
     completion: an id recycled between the refusal and the lookup
     ([Txn_rt.fresh ~id] can register an id again) resolves to an unrelated
     transaction's priority and kills or spares the wrong victim.
     [holder_priority = None] means the holder completed before the
     capture — the retry will likely succeed, so wait. *)
  let check_wait_die = function
    | `Conflict (Some { holder; holder_priority = Some hp }) when my_priority > hp ->
      (* Wait-die: the younger transaction dies immediately.  Leave the
         contended object and the winner as the restart hint, so the
         restart pause waits for the winner's transaction to complete. *)
      Obs.Metrics.incr m_wait_die;
      Domain.DLS.get restart_hint := Some { obj; holder; winner = hp; loser = my_priority };
      die ~name (Printf.sprintf "wait-die vs txn %d" holder)
    | `Conflict _ | `Blocked -> ()
  in
  Fun.protect ~finally:leave_wait @@ fun () ->
  let rec on_refusal n failure =
    check_wait_die failure;
    enter_wait ();
    (* Spin briefly (the holder is usually mid-operation), then park
       on the contended object until a commit/abort releases it.  A
       lock wait ends when the younger holder completes; a [`Blocked]
       wait when a commit makes a response legal. *)
    let early =
      if n < spin_limit then begin
        Domain.cpu_relax ();
        None
      end
      else begin
        (* Register, re-attempt, park: the re-attempt observes any
           release that beat the registration, so a wake-up can only
           be missed by a release that will still find our waiter. *)
        let ticket = Sched.register ~obj ~txn:my_id in
        match attempt () with
        | Ok v ->
          Sched.cancel ticket;
          Some v
        | Error f2 ->
          (try check_wait_die f2
           with e ->
             Sched.cancel ticket;
             raise e);
          ignore (Sched.park ticket ~timeout:backstop : [ `Woken | `Timeout ]);
          None
      end
    in
    (match early with
    | Some v -> v
    | None ->
      Obs.Metrics.incr m_retries;
      on_retry ();
      go (n + 1))
  and go n = match attempt () with Ok v -> v | Error failure -> on_refusal n failure in
  on_refusal 0 failure

(* The uncontended call is one attempt: the wait machinery is set up
   only after a refusal. *)
let run ?on_retry ~obj ~name ~self attempt =
  match attempt () with
  | Ok v -> v
  | Error failure -> refused ?on_retry ~obj ~name ~self attempt failure
