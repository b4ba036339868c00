(* Tests for the observability layer (lib/obs) and the trace-replay
   atomicity path.

   The load-bearing property: for any concurrent run, the object-local
   history reconstructed from the generic trace ring (ints + interned
   payload codes) is exactly the history the engine records with
   [record:true], and the replay checker accepts it — so hybrid
   atomicity can be validated from a trace captured in production, with
   no typed recording hook on the object. *)

module Q = Adt.Fifo_queue
module A = Adt.Account
module QObj = Runtime.Atomic_obj.Make (Q)
module AObj = Runtime.Atomic_obj.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- metrics registry ---------------- *)

let test_counter_basics () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  let v0 = Obs.Metrics.value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "incr + add" (v0 + 5) (Obs.Metrics.value c);
  (* the registry deduplicates by name: the same counter comes back *)
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  check_int "same cell" (v0 + 6) (Obs.Metrics.value c)

let test_counter_disabled_is_noop () =
  let c = Obs.Metrics.counter "test.obs.gated" in
  let v0 = Obs.Metrics.value c in
  Obs.Control.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_enabled true)
    (fun () -> Obs.Metrics.incr c);
  check_int "not counted while disabled" v0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  check_int "counted again" (v0 + 1) (Obs.Metrics.value c)

let test_counters_from_domains () =
  let c = Obs.Metrics.counter "test.obs.sharded" in
  let v0 = Obs.Metrics.value c in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> for _ = 1 to 1000 do Obs.Metrics.incr c done))
  in
  List.iter Domain.join workers;
  check_int "no lost updates" (v0 + 4000) (Obs.Metrics.value c)

let test_histogram_basics () =
  let h = Obs.Metrics.histogram ~bounds:[| 1e-3; 1e-2 |] "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 5e-4; 5e-4; 5e-3; 5e-2 ];
  check_int "count" 4 (Obs.Metrics.count h);
  check_bool "sum" true (abs_float (Obs.Metrics.sum h -. 0.056) < 1e-6);
  (match Obs.Metrics.buckets h with
  | [ (Some _, a); (Some _, b); (None, c) ] ->
    check_int "le 1ms" 2 a;
    check_int "le 10ms" 1 b;
    check_int "overflow" 1 c
  | _ -> Alcotest.fail "three buckets expected");
  Alcotest.check_raises "name collision"
    (Invalid_argument "Obs.Metrics.counter: \"test.obs.hist\" is a histogram")
    (fun () -> ignore (Obs.Metrics.counter "test.obs.hist"))

(* ---------------- trace ring ---------------- *)

let test_ring_wrap () =
  let tr = Obs.Trace.create ~capacity:8 () in
  for k = 0 to 19 do
    Obs.Trace.emit tr ~obj:1 ~txn:k (Obs.Trace.Commit k)
  done;
  check_int "dropped" 12 (Obs.Trace.dropped tr);
  let es = Obs.Trace.entries tr in
  check_int "window size" 8 (List.length es);
  Alcotest.(check (list int))
    "surviving window is the newest suffix, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Obs.Trace.seq) es);
  Obs.Trace.clear tr;
  check_int "cleared" 0 (List.length (Obs.Trace.entries tr));
  check_int "dropped reset" 0 (Obs.Trace.dropped tr)

let test_ring_concurrent_writers () =
  let tr = Obs.Trace.create ~capacity:(1 lsl 14) () in
  let per = 1000 in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for k = 1 to per do
              Obs.Trace.emit tr ~obj:d ~txn:k (Obs.Trace.Respond 0)
            done))
  in
  List.iter Domain.join workers;
  let es = Obs.Trace.entries tr in
  check_int "all entries survive" (4 * per) (List.length es);
  check_int "none dropped" 0 (Obs.Trace.dropped tr);
  check_bool "seqs strictly increasing" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a.Obs.Trace.seq < b.Obs.Trace.seq && ok rest
       | _ -> true
     in
     ok es)

(* ---------------- trace replay: random concurrent runs ----------------

   Each qcheck case is a real 2-domain run through the manager against a
   single object carrying both a [record:true] hook (the engine's typed
   account of the history) and a dedicated trace ring (the generic
   observability account).  The two reconstructions must coincide
   exactly, and the replay checker must accept the traced history. *)

let gen_queue_scripts =
  QCheck.Gen.(
    let op = oneof [ map (fun v -> Q.Enq v) (int_range 1 3); return Q.Deq ] in
    let txn = list_size (int_range 1 3) op in
    let script = list_size (int_range 1 4) txn in
    pair script script)

let print_queue_scripts (a, b) =
  let pr_op = function Q.Enq v -> Printf.sprintf "Enq %d" v | Q.Deq -> "Deq" in
  let pr_script s =
    String.concat "; "
      (List.map (fun ops -> "[" ^ String.concat " " (List.map pr_op ops) ^ "]") s)
  in
  Printf.sprintf "d0: %s | d1: %s" (pr_script a) (pr_script b)

let run_queue (s0, s1) =
  let tr = Obs.Trace.create ~capacity:(1 lsl 12) () in
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~record:true ~trace:tr ~conflict:Q.conflict_hybrid () in
  (* Seed one committed enqueue per dequeue in the scripts, so no
     interleaving can block on an empty queue (enqueues only add). *)
  let deqs =
    List.length (List.filter (fun i -> i = Q.Deq) (List.concat (s0 @ s1)))
  in
  if deqs > 0 then
    Runtime.Manager.run mgr (fun txn ->
        for k = 1 to deqs do
          ignore (QObj.invoke q txn (Q.Enq (k mod 3)))
        done);
  let worker script =
    Domain.spawn (fun () ->
        List.iter
          (fun ops ->
            Runtime.Manager.run mgr (fun txn ->
                List.iter (fun i -> ignore (QObj.invoke q txn i)) ops))
          script)
  in
  List.iter Domain.join (List.map worker [ s0; s1 ]);
  q

let prop_queue_replay scripts =
  let q = run_queue scripts in
  let recorded = QObj.history q in
  let replayed = QObj.replayed_history q in
  if replayed <> recorded then
    QCheck.Test.fail_report "trace-reconstructed history differs from recorded";
  (match QObj.replay_check q with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "replay check rejected the run: %s" e);
  (* The exponential online checker only on the smallest runs. *)
  let s = QObj.stats q in
  if s.QObj.commits <= 5 then
    match QObj.replay_check ~online:true q with
    | Ok () -> true
    | Error e -> QCheck.Test.fail_reportf "online check rejected the run: %s" e
  else true

let test_queue_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"queue: traced run replays to the recorded history"
       (QCheck.make ~print:print_queue_scripts gen_queue_scripts)
       prop_queue_replay)

let gen_account_scripts =
  QCheck.Gen.(
    let op =
      frequency
        [
          (4, map (fun v -> A.Credit v) (int_range 1 5));
          (4, map (fun v -> A.Debit v) (int_range 1 5));
          (1, return (A.Post 1));
        ]
    in
    let txn = list_size (int_range 1 3) op in
    let script = list_size (int_range 1 4) txn in
    pair script script)

let print_account_scripts (a, b) =
  let pr_op = function
    | A.Credit v -> Printf.sprintf "Credit %d" v
    | A.Debit v -> Printf.sprintf "Debit %d" v
    | A.Post v -> Printf.sprintf "Post %d" v
  in
  let pr_script s =
    String.concat "; "
      (List.map (fun ops -> "[" ^ String.concat " " (List.map pr_op ops) ^ "]") s)
  in
  Printf.sprintf "d0: %s | d1: %s" (pr_script a) (pr_script b)

let run_account (s0, s1) =
  let tr = Obs.Trace.create ~capacity:(1 lsl 12) () in
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~record:true ~trace:tr ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 10)));
  let worker script =
    Domain.spawn (fun () ->
        List.iter
          (fun ops ->
            Runtime.Manager.run mgr (fun txn ->
                List.iter (fun i -> ignore (AObj.invoke acc txn i)) ops))
          script)
  in
  List.iter Domain.join (List.map worker [ s0; s1 ]);
  acc

let prop_account_replay scripts =
  let acc = run_account scripts in
  let recorded = AObj.history acc in
  let replayed = AObj.replayed_history acc in
  if replayed <> recorded then
    QCheck.Test.fail_report "trace-reconstructed history differs from recorded";
  match AObj.replay_check acc with
  | Ok () -> true
  | Error e -> QCheck.Test.fail_reportf "replay check rejected the run: %s" e

let test_account_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"account: traced run replays to the recorded history"
       (QCheck.make ~print:print_account_scripts gen_account_scripts)
       prop_account_replay)

(* ---------------- replay: deterministic cases ---------------- *)

let test_replay_known_run () =
  let tr = Obs.Trace.create ~capacity:256 () in
  let mgr = Runtime.Manager.create () in
  let q = QObj.create ~record:true ~trace:tr ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      ignore (QObj.invoke q txn (Q.Enq 7));
      ignore (QObj.invoke q txn Q.Deq));
  let h = QObj.replayed_history q in
  check_int "five events" 5 (List.length h);
  check_bool "equals recorded" true (h = QObj.history q);
  check_bool "accepted" true (QObj.replay_check ~online:true q = Ok ())

let test_replay_ignores_other_objects () =
  let tr = Obs.Trace.create ~capacity:256 () in
  let mgr = Runtime.Manager.create () in
  let q1 = QObj.create ~trace:tr ~conflict:Q.conflict_hybrid () in
  let q2 = QObj.create ~record:true ~trace:tr ~conflict:Q.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      ignore (QObj.invoke q1 txn (Q.Enq 1));
      ignore (QObj.invoke q2 txn (Q.Enq 2)));
  Runtime.Manager.run mgr (fun txn -> ignore (QObj.invoke q1 txn Q.Deq));
  check_bool "q2 sees only its own events" true
    (QObj.replayed_history q2 = QObj.history q2);
  check_bool "q2 accepted" true (QObj.replay_check q2 = Ok ());
  check_int "distinct keys" 1 (abs (QObj.key q2 - QObj.key q1))

let () =
  Alcotest.run "obs-replay"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled is no-op" `Quick test_counter_disabled_is_noop;
          Alcotest.test_case "sharded counters under domains" `Quick
            test_counters_from_domains;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        ] );
      ( "trace-ring",
        [
          Alcotest.test_case "wrap and drop accounting" `Quick test_ring_wrap;
          Alcotest.test_case "concurrent writers" `Quick test_ring_concurrent_writers;
        ] );
      ( "replay",
        [
          Alcotest.test_case "known run" `Quick test_replay_known_run;
          Alcotest.test_case "filters by object key" `Quick
            test_replay_ignores_other_objects;
          test_queue_replay;
          test_account_replay;
        ] );
    ]
