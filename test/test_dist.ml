(* The sharded subsystem: timestamp striping, the refcounted shared-id
   registry, the presumed-abort decision log, in-doubt resolution, the
   cross-shard coordinator, and the cross-shard atomicity audit
   (including its negative controls). *)

module Cobj = Runtime.Atomic_obj.Make (Adt.Counter)

let temp_wal () =
  let f = Filename.temp_file "hybrid-cc-dist" ".wal" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

(* ---------------- timestamp striping ---------------- *)

(* Every commit timestamp drawn by a stripe-(i, n) manager lies in the
   residue class i mod n — the disjointness that makes max-of-prepares
   globally unique. *)
let test_striped_residues () =
  let n = 4 in
  for i = 0 to n - 1 do
    let ring = Obs.Trace.create ~capacity:256 () in
    let mgr = Runtime.Manager.create ~stripe:(i, n) () in
    let c = Cobj.create ~trace:ring ~conflict:Adt.Counter.conflict_hybrid () in
    for _ = 1 to 10 do
      Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)))
    done;
    List.iter
      (fun (e : Obs.Trace.entry) ->
        match e.event with
        | Obs.Trace.Commit ts ->
          Alcotest.(check int)
            (Printf.sprintf "stripe %d/%d residue of ts=%d" i n ts)
            i (ts mod n)
        | _ -> ())
      (Obs.Trace.entries ring)
  done

let test_stripe_validation () =
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Manager.create: stripe must satisfy 0 <= index < count") (fun () ->
      ignore (Runtime.Manager.create ~stripe:(4, 4) ()))

(* The default stripe is (0, 1): clock + 1, the seed behaviour. *)
let test_default_stripe_dense () =
  let ring = Obs.Trace.create ~capacity:256 () in
  let mgr = Runtime.Manager.create () in
  let c = Cobj.create ~trace:ring ~conflict:Adt.Counter.conflict_hybrid () in
  for _ = 1 to 5 do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)))
  done;
  let tss =
    List.filter_map
      (fun (e : Obs.Trace.entry) ->
        match e.event with Obs.Trace.Commit ts -> Some ts | _ -> None)
      (Obs.Trace.entries ring)
  in
  let sorted = List.sort compare tss in
  let rec dense = function
    | a :: (b :: _ as rest) -> b = a + 1 && dense rest
    | _ -> true
  in
  Alcotest.(check bool) "5 sequential commits draw consecutive timestamps" true
    (List.length sorted = 5 && dense sorted)

(* ---------------- shared-id refcounting ---------------- *)

let test_shared_id_refcount () =
  let gid = Runtime.Txn_rt.fresh_id ~priority:3 () in
  let b0 = Runtime.Txn_rt.fresh ~id:gid () in
  let b1 = Runtime.Txn_rt.fresh ~id:gid ~priority:99 () in
  Alcotest.(check int) "both branches share the id" gid (Runtime.Txn_rt.id b1);
  Alcotest.(check (option int))
    "the id's claim sets the priority" (Some 3)
    (Runtime.Txn_rt.priority_of_id gid);
  Alcotest.(check int) "a branch takes the id's priority" 3 (Runtime.Txn_rt.priority b1);
  Runtime.Txn_rt.release_id gid;
  Alcotest.(check (option int))
    "id still resolves after the claim is dropped" (Some 3)
    (Runtime.Txn_rt.priority_of_id gid);
  Runtime.Txn_rt.abort b0;
  Alcotest.(check (option int))
    "id still resolves while a branch is live" (Some 3)
    (Runtime.Txn_rt.priority_of_id gid);
  Runtime.Txn_rt.abort b1;
  Alcotest.(check (option int))
    "id retired with the last branch" None
    (Runtime.Txn_rt.priority_of_id gid)

(* ---------------- decision log ---------------- *)

let test_decision_log_roundtrip () =
  let path = temp_wal () in
  let d = Dist.Decision_log.create ~fsync:false path in
  Dist.Decision_log.decide d ~gtxn:1 ~ts:5;
  Dist.Decision_log.decide d ~gtxn:2 ~ts:9;
  Dist.Decision_log.note_abort d ~gtxn:3;
  Dist.Decision_log.forget d ~gtxn:1;
  Alcotest.(check (option int)) "decided 2" (Some 9) (Dist.Decision_log.decided d 2);
  Alcotest.(check bool) "outcome 1 is commit (audit remembers forgotten decisions)" true
    (Dist.Decision_log.outcome d 1 = Some (`Commit 5));
  Alcotest.(check bool) "outcome 3 is the in-memory abort verdict" true
    (Dist.Decision_log.outcome d 3 = Some `Abort);
  Alcotest.(check bool) "outcome 4 is unknown" true (Dist.Decision_log.outcome d 4 = None);
  Dist.Decision_log.close d;
  Alcotest.(check (list (pair int int)))
    "offline read excludes forgotten decisions" [ (2, 9) ]
    (Dist.Decision_log.read path)

(* ---------------- the cross-shard critical path ---------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A durable sharded set-up in a fresh directory, removed afterwards. *)
let with_durable_setup ~shards f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-dist-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Sim.Shard_exp.make_setup ~wal_dir:dir ~shards ()))

let shard_wal s i =
  Option.get (Dist.Shard.wal (Dist.Router.shard s.Sim.Shard_exp.router i))

(* A transfer out of the first listed shard into the others. *)
let transfer s shards =
  Dist.Coordinator.run s.Sim.Shard_exp.coord (fun ctx ->
      List.iteri
        (fun k si ->
          let b = Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router si) in
          let op = if k = 0 then Adt.Account.Debit (List.length shards - 1) else Adt.Account.Credit 1 in
          ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(si) b op))
        shards)

(* A committed cross-shard transaction over N participants waits on
   N + 1 forced writes: each vote's log, one after another, then the
   decision.  The sync rounds its logs run agree: one per participant
   log and one for the decision log, and none once the decision is
   durable — the commit records ride later syncs. *)
let test_waits_per_cross_commit () =
  with_durable_setup ~shards:3 @@ fun s ->
  let coord = s.Sim.Shard_exp.coord in
  let rounds = Atomic.make 0 and rounds_after_decide = Atomic.make 0 in
  let decided = Atomic.make false in
  let dlog = Dist.Decision_log.log (Option.get s.Sim.Shard_exp.dlog) in
  Wal.Log.set_sync_hook dlog (fun () -> Atomic.incr rounds);
  for i = 0 to 2 do
    Wal.Log.set_sync_hook (shard_wal s i) (fun () ->
        Atomic.incr rounds;
        if Atomic.get decided then Atomic.incr rounds_after_decide)
  done;
  Dist.Coordinator.set_step_hook coord (function
    | Dist.Coordinator.Executed -> Atomic.set decided false
    | Dist.Coordinator.Decided _ -> Atomic.set decided true
    | _ -> ());
  List.iter
    (fun shards ->
      let n = List.length shards in
      let before = Dist.Coordinator.stats coord in
      let rounds0 = Atomic.get rounds in
      for _ = 1 to 5 do
        transfer s shards
      done;
      let after = Dist.Coordinator.stats coord in
      let commits = after.c_cross_commits - before.c_cross_commits in
      Alcotest.(check int) (Printf.sprintf "%d-shard commits" n) 5 commits;
      let waits = after.c_cross_sync_waits - before.c_cross_sync_waits in
      Alcotest.(check int)
        (Printf.sprintf "%d participants: %d waits per commit" n (n + 1))
        ((n + 1) * commits) waits;
      Alcotest.(check int)
        (Printf.sprintf "%d participants: one sync round per wait" n)
        waits
        (Atomic.get rounds - rounds0))
    [ [ 0; 1 ]; [ 0; 1; 2 ] ];
  Alcotest.(check int) "no sync round after a decision" 0 (Atomic.get rounds_after_decide);
  Dist.Coordinator.clear_step_hook coord;
  Sim.Shard_exp.close_setup s

exception Vote_force_failed

(* Votes are forced one log after another, so a failing force stops
   the rest: with the middle participant's force failing once, the
   first vote is durable, the third was never forced, and the
   transaction commits nowhere.  Every branch is released — the same
   three shards then commit a transfer, and no stability pin is left
   behind. *)
let test_failed_vote_force () =
  with_durable_setup ~shards:3 @@ fun s ->
  let coord = s.Sim.Shard_exp.coord in
  let wals = Array.init 3 (shard_wal s) in
  let balances () = Array.map Sim.Shard_exp.Aobj.committed_states s.Sim.Shard_exp.accounts in
  let before = balances () and stats0 = Dist.Coordinator.stats coord in
  (* Every vote is appended before the first force, so the LSNs the
     hook reads cover each log's vote. *)
  let voted = ref [||] and fired = ref false in
  Wal.Log.set_sync_hook wals.(1) (fun () ->
      if not !fired then begin
        fired := true;
        voted := Array.map Wal.Log.appended_lsn wals;
        raise Vote_force_failed
      end);
  let gid = ref (-1) in
  Alcotest.check_raises "the transfer raises the force's failure" Vote_force_failed (fun () ->
      Dist.Coordinator.run coord (fun ctx ->
          gid := Dist.Coordinator.id ctx;
          List.iteri
            (fun k si ->
              let b = Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router si) in
              let op = if k = 0 then Adt.Account.Debit 2 else Adt.Account.Credit 1 in
              ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(si) b op))
            [ 0; 1; 2 ]));
  Wal.Log.clear_sync_hook wals.(1);
  Alcotest.(check bool) "the middle force failed" true !fired;
  Alcotest.(check bool) "the first vote is durable" true
    (Wal.Log.durable_lsn wals.(0) >= !voted.(0));
  Alcotest.(check bool) "the third vote was never forced" true
    (Wal.Log.durable_lsn wals.(2) < !voted.(2));
  let stats1 = Dist.Coordinator.stats coord in
  Alcotest.(check int) "no cross-shard commit" stats0.c_cross_commits stats1.c_cross_commits;
  Alcotest.(check int) "one abort" (stats0.c_aborts + 1) stats1.c_aborts;
  Alcotest.(check (option int)) "no decision" None
    (Dist.Decision_log.decided (Option.get s.Sim.Shard_exp.dlog) !gid);
  Array.iteri
    (fun i w ->
      let records, _ = Wal.Log.read (Wal.Log.path w) in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d logged no commit" i)
        false
        (List.mem_assoc !gid (Wal.Recover.committed records)))
    wals;
  Alcotest.(check (array (list int))) "balances unchanged" before (balances ());
  transfer s [ 0; 1; 2 ];
  Alcotest.(check int) "the next transfer commits" (stats1.c_cross_commits + 1)
    (Dist.Coordinator.stats coord).c_cross_commits;
  for i = 0 to 2 do
    let mgr = Dist.Shard.mgr (Dist.Router.shard s.Sim.Shard_exp.router i) in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d: no stability pin left" i)
      true
      (Runtime.Manager.stable_time mgr >= Runtime.Manager.current_time mgr)
  done;
  Sim.Shard_exp.close_setup s

(* The decision log stays O(unacknowledged decisions): with local
   commits syncing the participant logs, every decision is forgotten
   once its commit records are durable, and close forgets the rest. *)
let test_decision_log_bounded () =
  with_durable_setup ~shards:2 @@ fun s ->
  let d = Option.get s.Sim.Shard_exp.dlog in
  let local si =
    Runtime.Manager.run
      (Dist.Shard.mgr (Dist.Router.shard s.Sim.Shard_exp.router si))
      (fun txn -> ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(si) txn (Adt.Account.Credit 1)))
  in
  let most_pending = ref 0 in
  for _ = 1 to 1000 do
    transfer s [ 0; 1 ];
    let live = Wal.Log.live (Dist.Decision_log.log d) and pending = Dist.Decision_log.pending d in
    if live > pending then Alcotest.failf "decision log holds %d live records for %d pending" live pending;
    most_pending := max !most_pending pending;
    local 0;
    local 1
  done;
  Alcotest.(check int) "at most the latest decision is pending" 1 !most_pending;
  let path = Dist.Decision_log.path d in
  Sim.Shard_exp.close_setup s;
  Alcotest.(check int) "nothing live after close" 0 (Wal.Log.live (Dist.Decision_log.log d));
  Alcotest.(check (list (pair int int))) "no decision survives on disk" [] (Dist.Decision_log.read path)

(* ---------------- in-doubt resolution ---------------- *)

let in_doubt_records =
  [
    Wal.Log.Object { obj = "o"; adt = Adt.Counter.name; cell = None };
    Wal.Log.Intention { obj = "o"; txn = 7; payload = "p"; cell = None };
    Wal.Log.Prepare { txn = 7; gtxn = 7; ts = 42 };
  ]

let test_resolve_decided_commit () =
  let patched, res =
    Wal.Recover.resolve ~decided:(fun g -> if g = 7 then Some 50 else None) in_doubt_records
  in
  Alcotest.(check int) "one resolution" 1 (List.length res);
  (match res with
  | [ r ] ->
    Alcotest.(check bool) "resolved to the decided timestamp" true
      (r.Wal.Recover.r_outcome = `Commit 50)
  | _ -> Alcotest.fail "expected one resolution");
  Alcotest.(check (option int))
    "patched log commits the branch at the decided ts" (Some 50)
    (List.assoc_opt 7 (Wal.Recover.committed patched))

let test_resolve_presumed_abort () =
  let patched, res = Wal.Recover.resolve ~decided:(fun _ -> None) in_doubt_records in
  (match res with
  | [ r ] ->
    Alcotest.(check bool) "presumed abort" true (r.Wal.Recover.r_outcome = `Abort)
  | _ -> Alcotest.fail "expected one resolution");
  Alcotest.(check (option int))
    "patched log does not commit the branch" None
    (List.assoc_opt 7 (Wal.Recover.committed patched));
  Alcotest.(check (list int)) "patched log aborts it" [ 7 ] (Wal.Recover.aborted patched)

let test_resolve_skips_completed () =
  let records = in_doubt_records @ [ Wal.Log.Commit { txn = 7; ts = 42 } ] in
  let _, res = Wal.Recover.resolve ~decided:(fun _ -> Some 99) records in
  Alcotest.(check int) "a completed vote is not in doubt" 0 (List.length res)

(* ---------------- coordinator paths ---------------- *)

let test_single_shard_fast_path () =
  let s = Sim.Shard_exp.make_setup ~shards:2 () in
  Dist.Coordinator.run s.Sim.Shard_exp.coord (fun ctx ->
      let b = Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router 0) in
      ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(0) b (Adt.Account.Credit 5)));
  let st = Dist.Coordinator.stats s.Sim.Shard_exp.coord in
  Alcotest.(check int) "committed" 1 st.Dist.Coordinator.c_commits;
  Alcotest.(check int) "no 2PC for a single-shard txn" 0 st.Dist.Coordinator.c_cross_commits;
  Sim.Shard_exp.close_setup s

let test_read_only_commit () =
  let s = Sim.Shard_exp.make_setup ~shards:2 () in
  let v =
    Dist.Coordinator.run s.Sim.Shard_exp.coord (fun ctx ->
        (* Branches opened but never used participate nowhere. *)
        ignore (Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router 0));
        ignore (Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router 1));
        17)
  in
  Alcotest.(check int) "body value returned" 17 v;
  let st = Dist.Coordinator.stats s.Sim.Shard_exp.coord in
  Alcotest.(check int) "committed without 2PC" 1 st.Dist.Coordinator.c_commits;
  Alcotest.(check int) "no cross commit" 0 st.Dist.Coordinator.c_cross_commits;
  Sim.Shard_exp.close_setup s

let test_cross_shard_commit_agrees () =
  let s = Sim.Shard_exp.make_setup ~shards:2 () in
  Dist.Coordinator.run s.Sim.Shard_exp.coord (fun ctx ->
      let b0 = Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router 0) in
      let b1 = Dist.Coordinator.branch ctx (Dist.Router.shard s.Sim.Shard_exp.router 1) in
      ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(0) b0 (Adt.Account.Debit 3));
      ignore (Sim.Shard_exp.Aobj.invoke s.Sim.Shard_exp.accounts.(1) b1 (Adt.Account.Credit 3)));
  let st = Dist.Coordinator.stats s.Sim.Shard_exp.coord in
  Alcotest.(check int) "one 2PC commit" 1 st.Dist.Coordinator.c_cross_commits;
  (* Both shards' rings record the same transaction id committing at the
     same (decided) timestamp. *)
  let windows = Array.map Obs.Trace.entries (Sim.Shard_exp.rings s) in
  let commits w =
    List.filter_map
      (fun (e : Obs.Trace.entry) ->
        match e.event with Obs.Trace.Commit ts -> Some (e.txn, ts) | _ -> None)
      w
  in
  let cross w0 w1 =
    List.filter (fun (t, _) -> List.mem_assoc t (commits w1)) (commits w0)
  in
  (match cross windows.(0) windows.(1) with
  | [ (txn, ts) ] ->
    Alcotest.(check (option int))
      "same decided timestamp on both shards" (Some ts)
      (List.assoc_opt txn (commits windows.(1)))
  | l -> Alcotest.fail (Printf.sprintf "expected one cross-shard commit, saw %d" (List.length l)));
  Alcotest.(check bool) "audit passes" true
    (Result.is_ok (Dist.Audit.check ~outcome:(Sim.Shard_exp.outcome_fn s) windows));
  Sim.Shard_exp.close_setup s

(* Satellite regression: two shards in one process keep their
   bookkeeping fully apart — each ring only ever sees its own shard's
   objects, and per-shard attribution matrices do not interleave. *)
let test_two_shards_no_interleaving () =
  let s = Sim.Shard_exp.make_setup ~shards:2 () in
  ignore
    (Sim.Shard_exp.drive s
       { Sim.Driver.domains = 2; txns = 8; think_us = 0. }
       ~seed:1 ~cross_pct:0.);
  let keys = Array.map Sim.Shard_exp.Aobj.key s.Sim.Shard_exp.accounts in
  Array.iteri
    (fun i ring ->
      List.iter
        (fun (e : Obs.Trace.entry) ->
          Alcotest.(check int)
            (Printf.sprintf "ring %d entry belongs to shard %d's account" i i)
            keys.(i) e.obj)
        (Obs.Trace.entries ring))
    (Sim.Shard_exp.rings s);
  (* Each manager committed exactly its own domain's transactions (plus
     the seeding credit). *)
  Array.iteri
    (fun i _ ->
      let st =
        Runtime.Manager.stats (Dist.Shard.mgr (Dist.Router.shard s.Sim.Shard_exp.router i))
      in
      Alcotest.(check int)
        (Printf.sprintf "shard %d committed its own transactions" i)
        9 st.Runtime.Manager.committed)
    keys;
  Sim.Shard_exp.close_setup s

(* ---------------- the audit and its negative controls ---------------- *)

let entry seq obj txn event = { Obs.Trace.seq; time = seq; obj; txn; event }

let test_audit_commit_abort_disagreement () =
  let windows =
    [|
      [ entry 0 1 5 (Obs.Trace.Commit 10) ];
      [ entry 1 2 5 Obs.Trace.Abort ];
    |]
  in
  Alcotest.(check bool) "caught" true (Result.is_error (Dist.Audit.check windows))

let test_audit_ts_disagreement () =
  let windows =
    [|
      [ entry 0 1 5 (Obs.Trace.Commit 10) ];
      [ entry 1 2 5 (Obs.Trace.Commit 12) ];
    |]
  in
  Alcotest.(check bool) "caught" true (Result.is_error (Dist.Audit.check windows))

let test_audit_decided_abort_committed () =
  (* The ISSUE's negative control: a shard commits a transaction the
     coordinator decided to abort. *)
  let windows = [| [ entry 0 1 5 (Obs.Trace.Commit 10) ]; [] |] in
  let outcome g = if g = 5 then Some `Abort else None in
  Alcotest.(check bool) "caught" true (Result.is_error (Dist.Audit.check ~outcome windows))

let test_audit_decided_ts_mismatch () =
  let windows = [| [ entry 0 1 5 (Obs.Trace.Commit 10) ] |] in
  let outcome g = if g = 5 then Some (`Commit 11) else None in
  Alcotest.(check bool) "caught" true (Result.is_error (Dist.Audit.check ~outcome windows))

let test_audit_precedes_violation () =
  (* T6 invokes after T5's commit at ts=100 but carries ts=50:
     precedes ⊄ TS. *)
  let windows =
    [|
      [
        entry 0 1 5 (Obs.Trace.Commit 100);
        entry 1 1 6 (Obs.Trace.Invoke 0);
        entry 2 1 6 (Obs.Trace.Commit 50);
      ];
    |]
  in
  Alcotest.(check bool) "caught" true (Result.is_error (Dist.Audit.check windows))

let test_audit_clean () =
  let windows =
    [|
      [
        entry 0 1 5 (Obs.Trace.Invoke 0);
        entry 1 1 5 (Obs.Trace.Commit 10);
        entry 2 1 6 (Obs.Trace.Invoke 0);
        entry 3 1 6 (Obs.Trace.Commit 12);
      ];
      [ entry 4 2 5 (Obs.Trace.Commit 10) ];
    |]
  in
  let outcome g = if g = 5 then Some (`Commit 10) else None in
  (match Dist.Audit.check ~outcome windows with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let r = Dist.Audit.analyze ~outcome windows in
  Alcotest.(check int) "txns" 2 r.Dist.Audit.a_txns;
  Alcotest.(check int) "cross" 1 r.Dist.Audit.a_cross

(* ---------------- the live sharded workload ---------------- *)

(* The run-until-stopped workload behind sharded serve: it commits, its
   windows pass the cross-shard audit, a forged commit of a decided-abort
   transaction fails the same audit, and close returns. *)
let test_shard_live_audit () =
  let t =
    Sim.Shard_live.start
      {
        Sim.Shard_live.default_config with
        shards = 2;
        domains = 2;
        think_us = 0.;
        cross_pct = 20.;
      }
  in
  Unix.sleepf 0.2;
  Sim.Shard_live.stop t;
  let audit () =
    Dist.Audit.check
      ~outcome:(Sim.Shard_exp.outcome_fn (Sim.Shard_live.setup t))
      (Sim.Shard_live.windows t)
  in
  Alcotest.(check bool) "committed" true ((Sim.Shard_live.stats t).s_committed > 0);
  (match audit () with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "violation injected" true (Sim.Shard_live.inject_violation t);
  Alcotest.(check bool) "forgery caught" true (Result.is_error (audit ()));
  Sim.Shard_live.close t

(* ---------------- property: cross-shard runs stay atomic ---------------- *)

let prop_cross_shard_atomic =
  QCheck2.Test.make ~name:"sharded run passes the cross-shard audit (any seed)" ~count:12
    QCheck2.Gen.(0 -- 1000)
    (fun seed ->
      let scale = { Sim.Driver.domains = 2; txns = 8; think_us = 0. } in
      let o =
        Sim.Shard_exp.run_one ~scale ~seed ~shards:2 ~cross_pct:40. ()
      in
      match o.Sim.Shard_exp.row.Sim.Experiments.atomic with
      | Some (Ok ()) -> true
      | Some (Error e) -> QCheck2.Test.fail_reportf "atomicity: %s" e
      | None -> QCheck2.Test.fail_report "no audit ran")

let () =
  Alcotest.run "dist"
    [
      ( "striping",
        [
          Alcotest.test_case "commit timestamps stay in the stripe residue" `Quick
            test_striped_residues;
          Alcotest.test_case "stripe validation" `Quick test_stripe_validation;
          Alcotest.test_case "default stripe is dense" `Quick test_default_stripe_dense;
        ] );
      ( "txn-ids",
        [ Alcotest.test_case "shared ids are refcounted" `Quick test_shared_id_refcount ] );
      ( "decision-log",
        [
          Alcotest.test_case "decide/forget/outcome/read" `Quick test_decision_log_roundtrip;
          Alcotest.test_case "bounded by the pending decisions" `Quick test_decision_log_bounded;
        ] );
      ( "commit-waits",
        [
          Alcotest.test_case "one wait per vote and one to decide" `Quick
            test_waits_per_cross_commit;
          Alcotest.test_case "a failed vote force stops the rest" `Quick
            test_failed_vote_force;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "in-doubt resolves to the decided commit" `Quick
            test_resolve_decided_commit;
          Alcotest.test_case "in-doubt presumes abort" `Quick test_resolve_presumed_abort;
          Alcotest.test_case "completed votes are not in doubt" `Quick
            test_resolve_skips_completed;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "single-shard fast path" `Quick test_single_shard_fast_path;
          Alcotest.test_case "read-only global txn" `Quick test_read_only_commit;
          Alcotest.test_case "cross-shard commit agrees everywhere" `Quick
            test_cross_shard_commit_agrees;
          Alcotest.test_case "two shards in one process do not interleave" `Quick
            test_two_shards_no_interleaving;
        ] );
      ( "audit",
        [
          Alcotest.test_case "commit/abort disagreement" `Quick
            test_audit_commit_abort_disagreement;
          Alcotest.test_case "timestamp disagreement" `Quick test_audit_ts_disagreement;
          Alcotest.test_case "decided abort yet committed (negative control)" `Quick
            test_audit_decided_abort_committed;
          Alcotest.test_case "decided ts mismatch" `Quick test_audit_decided_ts_mismatch;
          Alcotest.test_case "precedes outside TS" `Quick test_audit_precedes_violation;
          Alcotest.test_case "clean history passes" `Quick test_audit_clean;
        ] );
      ( "live",
        [
          Alcotest.test_case "sharded live workload audits clean, then flags a forgery"
            `Quick test_shard_live_audit;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_cross_shard_atomic ] );
    ]
