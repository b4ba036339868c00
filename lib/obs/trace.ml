type refusal = { holder : int option; requested : int; held : int }

type event =
  | Invoke of int
  | Respond of int
  | Lock_refused of refusal
  | Blocked
  | Retry
  | Commit of int
  | Abort
  | Horizon_advanced of int
  | Forgotten of int

type entry = { seq : int; time : int; obj : int; txn : int; event : event }

type t = { mask : int; slots : entry array; cursor : int Atomic.t }

let no_op = -1

let dummy = { seq = -1; time = 0; obj = -1; txn = -1; event = Abort }

let round_up_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 8

let create ?(capacity = 1 lsl 16) () =
  let cap = round_up_pow2 capacity in
  { mask = cap - 1; slots = Array.make cap dummy; cursor = Atomic.make 0 }

let global = create ()

let emit t ~obj ~txn event =
  let s = Atomic.fetch_and_add t.cursor 1 in
  (* A record store is a single word write: a concurrent reader sees
     either the old or the new entry, never a torn one; [seq] tells it
     which. *)
  Array.unsafe_set t.slots (s land t.mask)
    { seq = s; time = Clock.now_ns (); obj; txn; event }

let dropped t = max 0 (Atomic.get t.cursor - Array.length t.slots)

let cursor t = Atomic.get t.cursor

let capacity t = Array.length t.slots

let entries t =
  let c = Atomic.get t.cursor in
  let lo = max 0 (c - Array.length t.slots) in
  let out = ref [] in
  for s = c - 1 downto lo do
    let e = Array.unsafe_get t.slots (s land t.mask) in
    if e.seq = s then out := e :: !out
  done;
  !out

let clear t =
  Atomic.set t.cursor 0;
  Array.fill t.slots 0 (Array.length t.slots) dummy

let pp_event ppf = function
  | Invoke c -> Format.fprintf ppf "invoke#%d" c
  | Respond c -> Format.fprintf ppf "respond#%d" c
  | Lock_refused { holder = Some h; requested; held } ->
    Format.fprintf ppf "lock-refused(op#%d vs op#%d held by T%d)" requested held h
  | Lock_refused { holder = None; requested; held } ->
    Format.fprintf ppf "lock-refused(op#%d vs op#%d)" requested held
  | Blocked -> Format.pp_print_string ppf "blocked"
  | Retry -> Format.pp_print_string ppf "retry"
  | Commit ts -> Format.fprintf ppf "commit@%d" ts
  | Abort -> Format.pp_print_string ppf "abort"
  | Horizon_advanced ts -> Format.fprintf ppf "horizon->%d" ts
  | Forgotten n -> Format.fprintf ppf "forgotten(%d)" n

let pp_entry ppf e =
  Format.fprintf ppf "[%d] obj=%d T%d %a" e.seq e.obj e.txn pp_event e.event
