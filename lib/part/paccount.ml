(* Escrow-style partitioned Account.

   The naive partition — hash each operation's amount to a cell
   (Adt.Account.cell_of_amount) — is UNSOUND, and Spec.Partition proves
   it with a Definition-3 counterexample: every amount drains one
   shared balance, so a Debit in one cell invalidates Debit responses
   in another.  The partition tests keep that negative case.

   The sound construction splits the STATE, not the relation: the
   balance becomes the sum of [cells] sub-balances, each a full Account
   cell object running the unmodified Figure 4-5 relation.  Client
   operations become per-cell operation sequences whose legality per
   cell implies legality of the client response for the whole account:

   - [Credit n]: credit one cell (round-robin, spreading liquidity).
     Always Ok, like the whole account.
   - [Post n]: multiply every sub-balance.  Multiplication distributes
     over the sum — sum((1+n)*b_i) = (1+n)*sum(b_i) — so posting every
     cell IS posting the account.  This is the "whole-object op under
     partitioning" technique: a broadcast of real per-cell operations,
     not a bypass of the cell locks.
   - [Debit n]: try the full amount against one cell (the escrow fast
     path — no other cell is even touched); on Overdraft, sweep the
     cells draining what each holds, halving the probe amount on each
     refusal.  A probe's Overdraft response is a real operation that
     takes the Debit/Overdraft lock — conflicting with Credit/Post per
     Figure 4-5 — so once the sweep finishes, no concurrent Credit can
     have slipped into an already-swept cell before our serialization
     point: if the sweep could not raise [n], the account balance at
     that point is genuinely below [n] and the client-level Overdraft
     is serially correct.  The partial takes are then compensated with
     Credits (always legal) inside the same transaction, leaving the
     balance unchanged, exactly like a whole-account Overdraft. *)

module A = Adt.Account
module C = Cells.Make (Adt.Account)
module O = C.O

type t = { cells : C.t; n : int; rr : int Atomic.t }

let create ?name ?record ?trace ?wal ?(conflict = A.conflict_hybrid) ~cells () =
  {
    cells =
      C.create ?name ?record ?trace ?wal ~op_label:A.op_label ~cells ~conflict ();
    n = cells;
    rr = Atomic.make 0;
  }

let next_cell t = Atomic.fetch_and_add t.rr 1 mod t.n

let debit t txn amount =
  let start = next_cell t in
  match C.invoke t.cells txn ~cell:(Some start) (A.Debit amount) with
  | A.Ok -> A.Ok
  | A.Overdraft when amount <= 0 -> A.Overdraft (* unreachable: s >= 0 always *)
  | A.Overdraft ->
    let taken = Array.make t.n 0 in
    let remaining = ref amount in
    for off = 0 to t.n - 1 do
      let k = (start + off) mod t.n in
      let probe = ref !remaining in
      while !remaining > 0 && !probe > 0 do
        match C.invoke t.cells txn ~cell:(Some k) (A.Debit !probe) with
        | A.Ok ->
          taken.(k) <- taken.(k) + !probe;
          remaining := !remaining - !probe;
          probe := min !probe !remaining
        | A.Overdraft ->
          (* Halving terminates: reaching probe = 0 proves (within our
             view, which includes our own takes) this sub-balance is 0. *)
          probe := !probe / 2
      done
    done;
    if !remaining = 0 then A.Ok
    else begin
      (* Every cell drained to 0 in our view and the takes still fall
         short: the whole-account balance at our serialization point is
         amount - remaining < amount, so Overdraft is the legal client
         response.  Undo the partial takes within the transaction. *)
      for k = 0 to t.n - 1 do
        if taken.(k) > 0 then
          ignore (C.invoke t.cells txn ~cell:(Some k) (A.Credit taken.(k)) : A.res)
      done;
      A.Overdraft
    end

let invoke t txn = function
  | A.Credit n -> C.invoke t.cells txn ~cell:(Some (next_cell t)) (A.Credit n)
  | A.Post n ->
    for k = 0 to t.n - 1 do
      ignore (C.invoke t.cells txn ~cell:(Some k) (A.Post n) : A.res)
    done;
    A.Ok
  | A.Debit n -> debit t txn n

(* Account is deterministic: every cell's committed-state set is a
   singleton sub-balance; the account balance is their sum. *)
let committed_balance t =
  C.committed_states_by_cell t.cells
  |> List.fold_left
       (fun acc (_, states) -> match states with s :: _ -> acc + s | [] -> acc)
       0

let cells t = t.cells
let name t = C.name t.cells
let stats t = C.stats t.cells
let replay_check ?online t = C.replay_check ?online t.cells
let register_introspection t = C.register_introspection t.cells
