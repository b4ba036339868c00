(* Tests for the appendix's Avalon-style Account: unit semantics of the
   affine-intent representation, the mode-based lock table, horizon
   forgetting, and randomized observational equivalence against the
   generic engine instantiated at Adt.Account. *)

module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)
module Av = Avalon_account

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- sequential semantics ---------------- *)

let test_sequential_ops () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  Runtime.Manager.run mgr (fun txn ->
      Av.credit acc txn 10;
      Av.post acc txn 1;
      (* (0+10)*2 = 20 *)
      check_bool "debit ok" true (Av.debit acc txn 5));
  check_int "balance" 15 (Av.committed_balance acc)

let test_overdraft () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 3);
  Runtime.Manager.run mgr (fun txn ->
      check_bool "overdraft refused" false (Av.debit acc txn 5));
  check_int "balance unchanged" 3 (Av.committed_balance acc)

let test_intent_composition_order () =
  (* credit then post vs post then credit differ: the affine intent must
     compose in program order. *)
  let mgr = Runtime.Manager.create () in
  let acc1 = Av.create () in
  Runtime.Manager.run mgr (fun txn ->
      Av.credit acc1 txn 10;
      Av.post acc1 txn 1);
  check_int "credit;post = 20" 20 (Av.committed_balance acc1);
  let acc2 = Av.create () in
  Runtime.Manager.run mgr (fun txn ->
      Av.post acc2 txn 1;
      Av.credit acc2 txn 10);
  check_int "post;credit = 10" 10 (Av.committed_balance acc2)

let test_abort_discards_intent () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 7);
  (match
     Runtime.Manager.run_once mgr (fun txn ->
         Av.credit acc txn 100;
         Runtime.Manager.abort_in ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected abort");
  check_int "aborted credit invisible" 7 (Av.committed_balance acc)

(* ---------------- lock modes ---------------- *)

let test_credit_conflicts_with_overdraft_only () =
  let acc = Av.create () in
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh () in
  (* t1 observes an overdraft; t2's credit must now conflict. *)
  (match Av.try_debit acc t1 5 with
  | Ok false -> ()
  | _ -> Alcotest.fail "expected overdraft");
  (match Av.try_credit acc t2 3 with
  | Error (`Conflict (Some c)) ->
    check_int "holder is t1" (Runtime.Txn_rt.id t1) c.Runtime.Retry.holder
  | _ -> Alcotest.fail "expected conflict");
  (* posts conflict with the overdraft too *)
  (match Av.try_post acc t2 1 with
  | Error (`Conflict _) -> ()
  | _ -> Alcotest.fail "post should conflict");
  Runtime.Txn_rt.abort t1;
  (* after t1 aborts, the credit goes through *)
  (match Av.try_credit acc t2 3 with
  | Ok () -> ()
  | _ -> Alcotest.fail "credit after release");
  Runtime.Txn_rt.abort t2

let test_debit_conflicts_with_debit () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 100);
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh () in
  (match Av.try_debit acc t1 5 with Ok true -> () | _ -> Alcotest.fail "t1 debit");
  (match Av.try_debit acc t2 5 with
  | Error (`Conflict _) -> ()
  | _ -> Alcotest.fail "t2 must conflict");
  Runtime.Txn_rt.abort t1;
  Runtime.Txn_rt.abort t2

let test_credits_and_posts_concurrent () =
  (* Credits, posts and successful debits all coexist across active
     transactions under the Figure 4-5 conflicts. *)
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 100);
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh () in
  let t3 = Runtime.Txn_rt.fresh () in
  (match Av.try_credit acc t1 10 with Ok () -> () | _ -> Alcotest.fail "credit");
  (match Av.try_post acc t2 1 with Ok () -> () | _ -> Alcotest.fail "post");
  (match Av.try_debit acc t3 5 with Ok true -> () | _ -> Alcotest.fail "debit");
  List.iter Runtime.Txn_rt.abort [ t1; t2; t3 ]

(* ---------------- forgetting ---------------- *)

let test_forgetting () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  for _ = 1 to 20 do
    Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 1)
  done;
  check_int "all intents folded" 0 (Av.remembered_intents acc);
  check_int "folded balance" 20 (Av.forgotten_balance acc)

let test_active_txn_pins_forgetting () =
  let mgr = Runtime.Manager.create () in
  let acc = Av.create () in
  let pin = Runtime.Txn_rt.fresh () in
  (match Av.try_credit acc pin 1 with Ok () -> () | _ -> Alcotest.fail "pin credit");
  for _ = 1 to 5 do
    Runtime.Manager.run mgr (fun txn -> Av.credit acc txn 1)
  done;
  check_int "pinned: nothing folded" 5 (Av.remembered_intents acc);
  Runtime.Txn_rt.abort pin;
  (* the abort triggers forget *)
  check_int "released" 0 (Av.remembered_intents acc);
  check_int "balance" 5 (Av.committed_balance acc)

(* ---------------- equivalence with the generic engine --------------- *)

(* Replay the same randomized single-threaded script against both
   implementations; balances and per-operation outcomes must agree. *)
let prop_equivalent_to_generic =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> `Credit (1 + n)) (0 -- 9);
          map (fun n -> `Post (1 + (n mod 2))) (0 -- 1);
          map (fun n -> `Debit (1 + n)) (0 -- 9);
        ])
  in
  QCheck2.Test.make ~name:"avalon == generic engine on random scripts" ~count:100
    QCheck2.Gen.(list_size (1 -- 8) (list_size (1 -- 4) op_gen))
    (fun script ->
      let mgr1 = Runtime.Manager.create () in
      let mgr2 = Runtime.Manager.create () in
      let av = Av.create () in
      let obj = AObj.create ~conflict:A.conflict_hybrid () in
      let run_txn ops =
        let r1 =
          Runtime.Manager.run mgr1 (fun txn ->
              List.map
                (function
                  | `Credit n ->
                    Av.credit av txn n;
                    true
                  | `Post n ->
                    Av.post av txn n;
                    true
                  | `Debit n -> Av.debit av txn n)
                ops)
        in
        let r2 =
          Runtime.Manager.run mgr2 (fun txn ->
              List.map
                (function
                  | `Credit n -> AObj.invoke obj txn (A.Credit n) = A.Ok
                  | `Post n -> AObj.invoke obj txn (A.Post n) = A.Ok
                  | `Debit n -> AObj.invoke obj txn (A.Debit n) = A.Ok)
                ops)
        in
        r1 = r2
      in
      List.for_all run_txn script
      &&
      match AObj.committed_states obj with
      | [ balance ] -> balance = Av.committed_balance av
      | _ -> false)

let () =
  Alcotest.run "avalon_account"
    [
      ( "sequential",
        [
          Alcotest.test_case "ops" `Quick test_sequential_ops;
          Alcotest.test_case "overdraft" `Quick test_overdraft;
          Alcotest.test_case "intent composition order" `Quick
            test_intent_composition_order;
          Alcotest.test_case "abort discards" `Quick test_abort_discards_intent;
        ] );
      ( "locks",
        [
          Alcotest.test_case "credit vs overdraft" `Quick
            test_credit_conflicts_with_overdraft_only;
          Alcotest.test_case "debit vs debit" `Quick test_debit_conflicts_with_debit;
          Alcotest.test_case "credit/post/debit concurrent" `Quick
            test_credits_and_posts_concurrent;
        ] );
      ( "forgetting",
        [
          Alcotest.test_case "sequential folds" `Quick test_forgetting;
          Alcotest.test_case "active pins" `Quick test_active_txn_pins_forgetting;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ prop_equivalent_to_generic ] );
    ]
