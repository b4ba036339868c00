(* Exact allocation ceilings for an uncontended transaction.

   Minor words per transaction do not drift with the host the way time
   does, so they can gate a change exactly.  One domain, observability
   off, flight recorder at level 0: 1k warm-up transactions, then
   [Gc.minor_words] over 100k transactions through [Manager.run], each
   on one Account.  A change that allocates less lowers a ceiling; one
   that must allocate more raises it and says why. *)

module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)

let warmup = 1_000
let measured = 100_000

let words_per_txn ops =
  let was_enabled = Obs.Control.enabled () in
  Obs.Control.set_enabled false;
  Obs.Flight.set_level 0;
  Fun.protect ~finally:(fun () -> Obs.Control.set_enabled was_enabled) @@ fun () ->
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~conflict:A.conflict_hybrid () in
  let txn () =
    Runtime.Manager.run mgr (fun t -> List.iter (fun i -> ignore (AObj.invoke acc t i : A.res)) ops)
  in
  for _ = 1 to warmup do
    txn ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to measured do
    txn ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int measured

let three_ops = [ A.Credit 10; A.Debit 5; A.Post 0 ]

let eight_ops =
  [ A.Credit 10; A.Debit 5; A.Post 0; A.Credit 7; A.Debit 3; A.Credit 2; A.Debit 4; A.Post 0 ]

let check_ceiling ops ceiling () =
  let words = words_per_txn ops in
  Printf.printf "%d-op transaction: %.1f words (ceiling %d)\n" (List.length ops) words ceiling;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per transaction <= %d" words ceiling)
    true
    (words <= float_of_int ceiling)

let () =
  Alcotest.run "alloc"
    [
      ( "ceiling",
        [
          Alcotest.test_case "3-op account transaction" `Quick (check_ceiling three_ops 328);
          Alcotest.test_case "8-op account transaction" `Quick (check_ceiling eight_ops 618);
        ] );
    ]
