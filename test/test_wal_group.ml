(* Group commit and the durability point.

   The commit path's contract after the sync rework:
   - a transaction is committed iff [Wal.Log.sync_upto] returned for its
     commit record's LSN;
   - a post-append sync failure raises [Manager.Durability_lost] without
     distributing commit or abort events, and retires the in-flight
     timestamp (a fault must never wedge [stable_time]);
   - batching changes when records reach disk, never their order: commit
     records appear in the file in strict commit-timestamp order, so
     recovery's replay order is the hybrid serialization order. *)

module CObj = Runtime.Atomic_obj.Make (Adt.Counter)

let temp_wal () =
  let f = Filename.temp_file "hybrid-cc-group" ".wal" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-group-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let commit_inc mgr c = Runtime.Manager.run mgr (fun txn -> ignore (CObj.invoke c txn (Adt.Counter.Inc 1)))

(* An injected sync failure surfaces as Durability_lost, retires the
   in-flight timestamp, and leaves the log usable once the fault
   clears. *)
let test_durability_lost () =
  let w = Wal.Log.create ~fsync:false (temp_wal ()) in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  commit_inc mgr c;
  Wal.Log.set_sync_hook w (fun () -> failwith "injected sync fault");
  (match commit_inc mgr c with
  | () -> Alcotest.fail "commit succeeded through a failing sync barrier"
  | exception Runtime.Manager.Durability_lost _ -> ()
  | exception e ->
    Alcotest.failf "expected Durability_lost, got %s" (Printexc.to_string e));
  Alcotest.(check int)
    "timestamp retired: stable watermark caught up"
    (Runtime.Manager.current_time mgr)
    (Runtime.Manager.stable_time mgr);
  (* The fault clears; the log (and later Inc transactions, which never
     conflict with the lost one under hybrid) proceed. *)
  Wal.Log.clear_sync_hook w;
  commit_inc mgr c;
  let stats = Runtime.Manager.stats mgr in
  Alcotest.(check int) "two commits reported" 2 stats.Runtime.Manager.committed;
  Wal.Log.close w

(* Runtime-reported outcomes agree with the durable log: every commit
   the runtime reported has a durable commit record; every abort it
   reported has none.  Durability_lost transactions may land either way
   — that is the point of the distinct exception. *)
let test_runtime_durable_agreement () =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let calls = ref 0 in
  Wal.Log.set_sync_hook w (fun () ->
      incr calls;
      if !calls mod 3 = 0 then failwith "intermittent sync fault");
  let ok = ref [] and lost = ref [] and aborted = ref [] in
  for k = 1 to 30 do
    let id = ref (-1) in
    let body txn =
      id := Runtime.Txn_rt.id txn;
      ignore (CObj.invoke c txn (Adt.Counter.Inc 1));
      if k mod 5 = 0 then Runtime.Manager.abort_in ~reason:"agreement-test abort" ()
    in
    match Runtime.Manager.run_once mgr body with
    | Ok () -> ok := !id :: !ok
    | Error _ -> aborted := !id :: !aborted
    | exception Runtime.Manager.Durability_lost _ -> lost := !id :: !lost
  done;
  Alcotest.(check bool) "some syncs failed" true (!lost <> []);
  Alcotest.(check bool) "some commits survived" true (!ok <> []);
  Alcotest.(check int)
    "every timestamp retired" (Runtime.Manager.current_time mgr)
    (Runtime.Manager.stable_time mgr);
  Wal.Log.clear_sync_hook w;
  Wal.Log.close w;
  let records, tail = Wal.Log.read path in
  if tail <> Wal.Log.Clean then Alcotest.fail "finished run left a torn log";
  let durable_commits =
    List.filter_map (function Wal.Log.Commit { txn; _ } -> Some txn | _ -> None) records
  in
  List.iter
    (fun id ->
      if not (List.mem id durable_commits) then
        Alcotest.failf "txn %d reported committed but has no durable commit record" id)
    !ok;
  List.iter
    (fun id ->
      if List.mem id durable_commits then
        Alcotest.failf "txn %d reported aborted but has a durable commit record" id)
    !aborted

(* Concurrent committers, group commit on: the log's commit records are
   in strictly increasing timestamp order (the append happens inside the
   timestamp-draw critical section; batching must not reorder it). *)
let test_commit_order =
  QCheck2.Test.make ~name:"durable commit order = commit-timestamp order" ~count:5
    QCheck2.Gen.(int_range 0 10_000)
    (fun _seed ->
      let path = temp_wal () in
      let w = Wal.Log.create ~fsync:false ~group_commit:true path in
      let mgr = Runtime.Manager.create ~wal:w () in
      let c =
        CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid ()
      in
      let worker _ = Domain.spawn (fun () -> for _ = 1 to 25 do commit_inc mgr c done) in
      List.init 4 worker |> List.iter Domain.join;
      Wal.Log.close w;
      let records, _ = Wal.Log.read path in
      let tss =
        List.filter_map (function Wal.Log.Commit { ts; _ } -> Some ts | _ -> None) records
      in
      Alcotest.(check int) "all commits logged" 100 (List.length tss);
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      if not (sorted tss) then Alcotest.fail "commit records out of timestamp order";
      true)

(* Batch formation is deterministic against a pinned barrier cost:
   4 committers against a 300us barrier must share fsyncs. *)
let test_batching () =
  let dir = temp_dir () in
  let row =
    Sim.Group_commit.run ~fsync:false ~sync_sleep_us:300. ~txns:50 ~label:"batch" ~dir
      ~domains:4 ~group_commit:true ()
  in
  Alcotest.(check int) "all transactions committed" 200 row.Sim.Group_commit.g_committed;
  if row.Sim.Group_commit.g_fsyncs >= row.Sim.Group_commit.g_committed then
    Alcotest.failf "no batching: %d syncs for %d commits" row.Sim.Group_commit.g_fsyncs
      row.Sim.Group_commit.g_committed

(* Kill-point crash recovery holds in both sync modes on every
   concurrent workload (queue, semiqueue, account): batching changes
   durability timing, not the log's record order, so every crash image
   still recovers its committed prefix, and the clean image the live
   object's state. *)
let test_crash_both_modes () =
  List.iter
    (fun group_commit ->
      let dir = temp_dir () in
      let runs = Sim.Crash_exp.all ~group_commit ~dir () in
      Alcotest.(check int) "three runs" 3 (List.length runs);
      List.iter
        (fun r ->
          if not (Sim.Crash_exp.ok r) then
            Alcotest.failf "crash recovery of %s failed with group_commit=%b: %s"
              r.Sim.Crash_exp.c_id group_commit
              (String.concat "; "
                 ((match r.Sim.Crash_exp.c_final with Ok () -> [] | Error e -> [ e ])
                 @ List.map (fun (kp, e) -> kp ^ ": " ^ e) r.Sim.Crash_exp.c_failures)))
        runs)
    [ true; false ]

let () =
  Alcotest.run "wal-group-commit"
    [
      ( "durability-point",
        [
          Alcotest.test_case "sync failure raises Durability_lost" `Quick
            test_durability_lost;
          Alcotest.test_case "runtime outcomes agree with the durable log" `Quick
            test_runtime_durable_agreement;
        ] );
      ( "group-commit",
        [
          QCheck_alcotest.to_alcotest test_commit_order;
          Alcotest.test_case "batched sync against a pinned barrier" `Quick test_batching;
          Alcotest.test_case "kill points recover in both sync modes" `Slow
            test_crash_both_modes;
        ] );
    ]
