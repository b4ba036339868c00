(* Tests for the trace-analysis layer: quantiles and JSON metric dumps
   (Obs.Metrics), the ring-wrap property, conflict attribution end to
   end (Compacted -> Atomic_obj -> trace -> Obs.Attrib), the wait-for
   auditor, and the Chrome trace export. *)

module A = Adt.Account
module AObj = Runtime.Atomic_obj.Make (A)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Metrics.quantile ---------------- *)

let test_quantile_interpolation () =
  let h = Obs.Metrics.histogram ~bounds:[| 10.; 20. |] "test.obs.quantile" in
  for _ = 1 to 10 do
    Obs.Metrics.observe h 5.
  done;
  (* ten samples in (0, 10]: rank q*10 interpolates linearly there *)
  check_float "p50 in first bucket" 5. (Obs.Metrics.quantile h 0.5);
  check_float "p95 in first bucket" 9.5 (Obs.Metrics.quantile h 0.95);
  for _ = 1 to 4 do
    Obs.Metrics.observe h 15.
  done;
  (* 14 samples: p50 rank 7 still in (0, 10]; p100 tops the last bound *)
  check_float "p50 after more samples" 7. (Obs.Metrics.quantile h 0.5);
  check_float "p100 is the top bound" 20. (Obs.Metrics.quantile h 1.0);
  (* out-of-range q is clamped *)
  check_float "q clamped below" 0. (Obs.Metrics.quantile h (-1.));
  check_float "q clamped above" 20. (Obs.Metrics.quantile h 2.)

let test_quantile_edge_cases () =
  let h = Obs.Metrics.histogram ~bounds:[| 1.; 2. |] "test.obs.quantile-empty" in
  check_float "empty histogram" 0. (Obs.Metrics.quantile h 0.5);
  (* a sample beyond every bound reports the largest finite bound: the
     histogram cannot resolve further, and under-reporting is honest *)
  let h2 = Obs.Metrics.histogram ~bounds:[| 1.; 2. |] "test.obs.quantile-inf" in
  Obs.Metrics.observe h2 100.;
  check_float "overflow clamps to last bound" 2. (Obs.Metrics.quantile h2 0.99)

let test_dump_json () =
  let c = Obs.Metrics.counter "test.obs.json-counter" in
  Obs.Metrics.add c 7;
  let h = Obs.Metrics.histogram ~bounds:[| 0.5 |] "test.obs.json-hist" in
  Obs.Metrics.observe h 0.25;
  let out = Format.asprintf "%a" Obs.Metrics.dump_json () in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  check_bool "every line is one JSON object" true
    (List.for_all
       (fun l -> String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}')
       lines);
  let has needle = List.exists (fun l -> Astring_contains.contains l needle) lines in
  check_bool "counter line" true
    (has "\"type\":\"counter\",\"name\":\"test.obs.json-counter\",\"value\":7");
  check_bool "histogram line carries count and quantiles" true
    (has "\"name\":\"test.obs.json-hist\"" && has "\"count\":1" && has "\"p50\":");
  check_bool "histogram line carries buckets" true (has "\"buckets\":[{\"le\":0.5")

(* ---------------- ring wrap property ---------------- *)

let prop_ring_wrap n =
  let cap = 8 in
  let tr = Obs.Trace.create ~capacity:cap () in
  for k = 0 to n - 1 do
    Obs.Trace.emit tr ~obj:1 ~txn:k (Obs.Trace.Commit k)
  done;
  let es = Obs.Trace.entries tr in
  let expect_len = min n cap in
  if List.length es <> expect_len then
    QCheck.Test.fail_reportf "window size %d, expected %d" (List.length es) expect_len;
  if Obs.Trace.dropped tr <> max 0 (n - cap) then
    QCheck.Test.fail_reportf "dropped %d, expected %d" (Obs.Trace.dropped tr)
      (max 0 (n - cap));
  (* the survivors are exactly the newest emissions, in order *)
  let seqs = List.map (fun e -> e.Obs.Trace.seq) es in
  let expected = List.init expect_len (fun i -> n - expect_len + i) in
  if seqs <> expected then QCheck.Test.fail_report "window is not the contiguous suffix";
  true

let test_ring_wrap_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"ring keeps the newest contiguous suffix; dropped == overflow"
       QCheck.(int_range 0 50)
       prop_ring_wrap)

(* ---------------- conflict attribution end to end ----------------

   A deterministic two-transaction interleaving on one account: t1
   locks Debit/Ok, t2's Debit then hits DEBIT-DEBIT (fig 4-5).  The
   refusal in the trace must name t1 as holder and carry op codes that
   decode to the exact (requested, held) operation pair. *)

let test_refusal_attribution () =
  let tr = Obs.Trace.create ~capacity:256 () in
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~trace:tr ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn -> ignore (AObj.invoke acc txn (A.Credit 100)));
  let t1 = Runtime.Txn_rt.fresh () in
  let t2 = Runtime.Txn_rt.fresh () in
  (match AObj.try_invoke acc t1 (A.Debit 5) with
  | Ok A.Ok -> ()
  | _ -> Alcotest.fail "t1's debit should succeed");
  (match AObj.try_invoke acc t2 (A.Debit 3) with
  | Error (`Conflict (Some c)) ->
    check_int "failure names t1" (Runtime.Txn_rt.id t1) c.Runtime.Retry.holder
  | Ok _ -> Alcotest.fail "t2's debit should conflict"
  | Error _ -> Alcotest.fail "expected a conflict with a known holder");
  (match
     List.filter_map
       (fun e ->
         match e.Obs.Trace.event with
         | Obs.Trace.Lock_refused r -> Some (e.Obs.Trace.txn, r)
         | _ -> None)
       (Obs.Trace.entries tr)
   with
  | [ (txn, r) ] ->
    check_int "refusal tagged with the requester" (Runtime.Txn_rt.id t2) txn;
    (match r.Obs.Trace.holder with
    | Some h -> check_int "refusal names t1 as holder" (Runtime.Txn_rt.id t1) h
    | None -> Alcotest.fail "refusal lost the holder");
    check_bool "requested op decodes" true
      (AObj.decode_op acc r.Obs.Trace.requested = Some (A.Debit 3, A.Ok));
    check_bool "held op decodes" true
      (AObj.decode_op acc r.Obs.Trace.held = Some (A.Debit 5, A.Ok))
  | l -> Alcotest.failf "expected exactly one refusal, got %d" (List.length l));
  (* the fold sees the same cell, with human-readable labels *)
  let at = Obs.Attrib.of_entries (Obs.Trace.entries tr) in
  check_int "one fired conflict" 1 (Obs.Attrib.total_refusals at);
  (match Obs.Attrib.labelled_cells at with
  | [ ((_, requested, held), cell) ] ->
    check_int "cell refusals" 1 cell.Obs.Attrib.refusals;
    check_bool "requested label" true (Astring_contains.contains requested "Debit");
    check_bool "held label" true (Astring_contains.contains held "Debit")
  | _ -> Alcotest.fail "expected exactly one matrix cell");
  check_bool "holder ranking charges t1" true
    (Obs.Attrib.holders at = [ (Runtime.Txn_rt.id t1, 1) ]);
  Runtime.Txn_rt.abort t2;
  Runtime.Txn_rt.abort t1

(* ---------------- Attrib fold on a synthetic window ---------------- *)

let entry seq time obj txn event = { Obs.Trace.seq; time; obj; txn; event }

let test_attrib_blocked_time () =
  let refusal = Obs.Trace.Lock_refused { holder = Some 1; requested = 0; held = 1 } in
  let window =
    [
      entry 0 0 7 2 refusal;
      entry 1 1_000 7 2 refusal;
      (* second refusal of the same stalled attempt: counts, no reopen *)
      entry 2 3_000 7 2 (Obs.Trace.Respond 0);
      entry 3 9_000 8 3 refusal;
      (* never granted: charged up to the last entry *)
      entry 4 10_000 8 3 (Obs.Trace.Commit 1);
    ]
  in
  let at = Obs.Attrib.of_entries window in
  check_int "three refusals" 3 (Obs.Attrib.total_refusals at);
  check_int "blocked: 3000 on obj 7 + 1000 on obj 8" 4_000 (Obs.Attrib.total_blocked_ns at);
  check_int "two cells (per object)" 2 (List.length (Obs.Attrib.cells at));
  check_bool "holder 1 charged all three" true (Obs.Attrib.holders at = [ (1, 3) ])

(* ---------------- Waitfor on synthetic windows ---------------- *)

let refused ~holder = Obs.Trace.Lock_refused { holder = Some holder; requested = 0; held = 0 }

let test_waitfor_wait_die_victim_is_no_edge () =
  (* a refusal followed by death, never a Retry: wait-die killed the
     requester, so no waits-for edge may appear *)
  let window =
    [
      entry 0 0 7 3 (refused ~holder:2);
      entry 1 100 7 3 Obs.Trace.Abort;
      entry 2 200 7 2 (Obs.Trace.Commit 1);
    ]
  in
  let r = Obs.Waitfor.analyze window in
  check_int "no confirmed edges" 0 r.Obs.Waitfor.edges;
  check_bool "acyclic" true (Obs.Waitfor.ok r);
  check_bool "but the death is attributed to the holder" true
    (r.Obs.Waitfor.deaths = [ (3, 2) ])

let test_waitfor_detects_cycle () =
  (* two transactions each confirmed waiting on the other: the exact
     protocol bug wait-die exists to prevent *)
  let window =
    [
      entry 0 0 7 1 (refused ~holder:2);
      entry 1 10 7 1 Obs.Trace.Retry;
      entry 2 20 8 2 (refused ~holder:1);
      entry 3 30 8 2 Obs.Trace.Retry;
    ]
  in
  let r = Obs.Waitfor.analyze window in
  check_int "two confirmed edges" 2 r.Obs.Waitfor.edges;
  check_bool "cycle detected" false (Obs.Waitfor.ok r);
  (match r.Obs.Waitfor.cycles with
  | [ loop ] -> check_bool "loop names both" true (List.sort compare loop = [ 1; 2 ])
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l))

let test_waitfor_grant_closes_edge () =
  let window =
    [
      entry 0 0 7 1 (refused ~holder:2);
      entry 1 1_000 7 1 Obs.Trace.Retry;
      entry 2 5_000 7 1 (Obs.Trace.Respond 0);
      (* 2 then waits on 1 — no cycle, 1 no longer waits *)
      entry 3 6_000 8 2 (refused ~holder:1);
      entry 4 7_000 8 2 Obs.Trace.Retry;
      entry 5 9_000 8 2 (Obs.Trace.Respond 0);
    ]
  in
  let r = Obs.Waitfor.analyze window in
  check_bool "acyclic" true (Obs.Waitfor.ok r);
  check_int "two edges over time" 2 r.Obs.Waitfor.edges;
  check_int "never simultaneous" 1 r.Obs.Waitfor.max_width;
  check_bool "blocked time from first refusal to grant" true
    (List.sort compare r.Obs.Waitfor.blocked_ns = [ (1, 5_000); (2, 3_000) ])

let test_waitfor_death_chain () =
  (* 3 dies on 2, then 2 dies on 1: a two-link abort cascade *)
  let window =
    [
      entry 0 0 7 3 (refused ~holder:2);
      entry 1 10 7 3 Obs.Trace.Abort;
      entry 2 20 7 2 (refused ~holder:1);
      entry 3 30 7 2 Obs.Trace.Abort;
      entry 4 40 7 1 (Obs.Trace.Commit 1);
    ]
  in
  let r = Obs.Waitfor.analyze window in
  check_bool "deaths recorded in order" true
    (r.Obs.Waitfor.deaths = [ (3, 2); (2, 1) ]);
  check_bool "cascade found" true (r.Obs.Waitfor.longest_death_chain = [ 3; 2; 1 ])

(* ---------------- Chrome export ---------------- *)

let test_chrome_export () =
  let tr = Obs.Trace.create ~capacity:256 () in
  let mgr = Runtime.Manager.create () in
  let acc = AObj.create ~trace:tr ~conflict:A.conflict_hybrid () in
  Runtime.Manager.run mgr (fun txn ->
      ignore (AObj.invoke acc txn (A.Credit 100));
      ignore (AObj.invoke acc txn (A.Debit 10)));
  let out = Format.asprintf "%a" Obs.Export.chrome_trace (Obs.Trace.entries tr) in
  let trimmed = String.trim out in
  check_bool "JSON array" true
    (String.length trimmed > 1
    && trimmed.[0] = '['
    && trimmed.[String.length trimmed - 1] = ']');
  let has needle = Astring_contains.contains out needle in
  check_bool "object and transaction process metadata" true
    (has "\"process_name\"" && has "\"objects\"" && has "\"transactions\"");
  check_bool "operation spans are named by invocation label" true
    (has "\"ph\":\"X\"" && has "Credit(100)" && has "Debit(10)");
  check_bool "commit instants" true (has "\"commit\"");
  (* microsecond timestamps rebased to the window start *)
  check_bool "rebased timestamps" true (has "\"ts\":0")

let test_chrome_export_empty () =
  (* an empty window still yields a loadable array (process metadata
     only, no spans or instants) *)
  let out = Format.asprintf "%a" Obs.Export.chrome_trace [] in
  let trimmed = String.trim out in
  check_bool "still a JSON array" true
    (trimmed.[0] = '[' && trimmed.[String.length trimmed - 1] = ']');
  check_bool "no spans or instants" true
    ((not (Astring_contains.contains out "\"ph\":\"X\""))
    && not (Astring_contains.contains out "\"ph\":\"i\""))

let () =
  Alcotest.run "obs-analysis"
    [
      ( "quantiles",
        [
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "edge cases" `Quick test_quantile_edge_cases;
          Alcotest.test_case "dump_json" `Quick test_dump_json;
        ] );
      ("trace-ring", [ test_ring_wrap_prop ]);
      ( "attribution",
        [
          Alcotest.test_case "refusal carries holder and op pair" `Quick
            test_refusal_attribution;
          Alcotest.test_case "blocked-time fold" `Quick test_attrib_blocked_time;
        ] );
      ( "wait-for",
        [
          Alcotest.test_case "wait-die victim opens no edge" `Quick
            test_waitfor_wait_die_victim_is_no_edge;
          Alcotest.test_case "confirmed mutual wait is a cycle" `Quick
            test_waitfor_detects_cycle;
          Alcotest.test_case "grant closes the edge" `Quick test_waitfor_grant_closes_edge;
          Alcotest.test_case "abort cascades chain" `Quick test_waitfor_death_chain;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_export;
          Alcotest.test_case "empty window" `Quick test_chrome_export_empty;
        ] );
    ]
