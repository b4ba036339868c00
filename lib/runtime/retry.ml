type conflict = { holder : int; holder_priority : int option }
type failure = [ `Blocked | `Conflict of conflict option ]

let m_retries = Obs.Metrics.counter "retry.retries"
let m_wait_die = Obs.Metrics.counter "retry.wait_die_deaths"
let m_give_ups = Obs.Metrics.counter "retry.give_ups"

(* Transactions currently inside a retry loop after at least one
   refusal — the instantaneous contention level the [top] dashboard
   shows.  A gauge, not gated on the observability switch (a toggle
   mid-loop must not strand a phantom waiter). *)
let g_waiting = Obs.Gauge.make "retry_waiting"

let die ~name reason =
  raise (Txn_rt.Abort_requested (Printf.sprintf "%s: %s" name reason))

(* How many attempts spin before parking. *)
let spin_limit = 10

(* The object the current domain's last dying transaction lost a
   conflict on, with the transaction it lost to (-1 when unknown).  The
   death site knows both; the restart loop that catches the abort does
   not, so the hint carries them across (one transaction runs per
   domain at a time). *)
let restart_hint : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_restart_hint ~obj ~holder = Domain.DLS.get restart_hint := Some (obj, holder)

let restart_pause ~key ~attempt =
  let delay = Backoff.restart_delay ~key ~attempt in
  if Obs.Span.enabled () then
    Obs.Span.backoff ~txn:key ~sleep_ns:(int_of_float (delay *. 1e9));
  let hint = Domain.DLS.get restart_hint in
  let lost = !hint in
  hint := None;
  match lost with
  | None -> Sched.sleep delay
  | Some (obj, holder) ->
    (* Park on the lost object until a release after the winner has
       completed.  Restarting while the winner is still live only dies
       again, so a wake-up from another release of the object (the
       abort of another loser, say) parks again.  The delay bounds the
       pause. *)
    let deadline = Obs.Clock.now_ns () + int_of_float (delay *. 1e9) in
    let rec wait () =
      let left = deadline - Obs.Clock.now_ns () in
      if left > 0 then
        let ticket = Sched.register ~obj ~txn:key in
        match Sched.park ticket ~timeout:(Obs.Clock.ns_to_s left) with
        | `Woken when holder >= 0 && Txn_rt.priority_of_id holder <> None -> wait ()
        | `Woken | `Timeout -> ()
    in
    wait ()

(* Everything after a first refusal: the wait window, wait-die, the
   spin-then-park loop and the give-up budget. *)
let refused ?(retries = 500) ?(on_retry = ignore) ?(obj = 0) ~name ~self attempt failure =
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
     (coordinators re-register explicit ids) resolves to an unrelated
     transaction's priority and kills or spares the wrong victim.
     [holder_priority = None] means the holder completed before the
     capture — the retry will likely succeed, so wait. *)
  let check_wait_die = function
    | `Conflict (Some { holder; holder_priority = Some hp }) when my_priority > hp ->
      (* Wait-die: the younger transaction dies immediately.  Leave the
         contended object and the holder as the restart hint, so the
         restart pause waits for the holder to complete instead of
         sleeping blind. *)
      Obs.Metrics.incr m_wait_die;
      set_restart_hint ~obj ~holder;
      die ~name (Printf.sprintf "wait-die vs txn %d" holder)
    | `Conflict _ | `Blocked -> ()
  in
  Fun.protect ~finally:leave_wait @@ fun () ->
  let rec on_refusal n failure =
    check_wait_die failure;
    if n >= retries then begin
      Obs.Metrics.incr m_give_ups;
      set_restart_hint ~obj ~holder:(-1);
      die ~name (Printf.sprintf "giving up after %d attempts" n)
    end;
    enter_wait ();
    (* Spin briefly (the holder is usually mid-operation), then park
       on the contended object until a commit/abort releases it, with
       the jittered exponential quantum as the timeout backstop — a
       missed signal degrades to exactly the old backoff sleep, never
       a stranded waiter (see Sched). *)
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
          ignore
            (Sched.park ticket
               ~timeout:(Backoff.retry_delay ~key:my_id ~attempt:(n - spin_limit))
              : [ `Woken | `Timeout ]);
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
let run ?retries ?on_retry ?obj ~name ~self attempt =
  match attempt () with
  | Ok v -> v
  | Error failure -> refused ?retries ?on_retry ?obj ~name ~self attempt failure
