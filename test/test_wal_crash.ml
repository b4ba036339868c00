(* Crash-recovery property, every ADT x every kill point: cut the log
   of a finished durable run at each deterministic kill point and check
   that recovery rebuilds exactly the committed prefix of that image —
   by two independent paths (checkpointed redo vs full replay from the
   initial state), compared up to observational equivalence
   (equal_state set equality, Definition 25). *)

module type TESTABLE = sig
  include Spec.Adt_sig.BOUNDED

  val codec : (inv, res, state) Wal.Codec.t
end

let temp_wal () =
  let f = Filename.temp_file "hybrid-cc-crash" ".wal" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

module Crash_prop (X : TESTABLE) = struct
  module O = Runtime.Atomic_obj.Make (X)
  module R = Wal.Recover.Make (X)

  let invs = List.sort_uniq compare (List.map fst X.universe)
  let n_invs = List.length invs

  (* Sequential durable run driven by an LCG: [txns] transactions of up
     to [ops] operations each, with every third transaction aborted
     midway to exercise Abort records and intention discarding.  The
     rewrite threshold is effectively infinite so every record survives
     for the reference replay; everything-conflicts serialization is
     irrelevant sequentially but keeps lock bookkeeping honest. *)
  let run_workload ~seed ~txns ~ops path =
    let w = Wal.Log.create ~fsync:false ~compact_threshold:max_int path in
    let mgr = Runtime.Manager.create ~wal:w () in
    let o = O.create ~wal:(w, X.codec) ~conflict:(fun _ _ -> true) () in
    let lcg = ref (1 + abs seed) in
    let next () =
      lcg := 1 + (!lcg * 48271 mod 0x7fffffff);
      !lcg
    in
    for t = 1 to txns do
      let result =
        Runtime.Manager.run_once mgr (fun txn ->
            for _ = 1 to 1 + (next () mod ops) do
              (* Skip invocations with no legal response (partial ops). *)
              let start = next () mod n_invs in
              let rec attempt tries =
                if tries < n_invs then
                  match O.try_invoke o txn (List.nth invs ((start + tries) mod n_invs)) with
                  | Ok _ -> ()
                  | Error `Blocked -> attempt (tries + 1)
                  | Error (`Conflict _) ->
                    Alcotest.fail "sequential run cannot see a lock conflict"
              in
              attempt 0
            done;
            if t mod 3 = 0 then Runtime.Manager.abort_in ~reason:"crash-test abort" ())
      in
      ignore (result : (unit, string) result)
    done;
    let live_states = O.committed_states o in
    Wal.Log.close w;
    (O.name o, live_states)

  let check ~seed ~txns ~ops =
    let path = temp_wal () in
    let name, live_states = run_workload ~seed ~txns ~ops path in
    let raw = Wal.Log.read_file path in
    let records, tail = Wal.Log.parse raw in
    if tail <> Wal.Log.Clean then Alcotest.fail "finished run left a torn log";
    (* Clean image: recovery must equal the live object's final states. *)
    (match R.recover ~obj:name records with
    | Error e -> Alcotest.fail (X.name ^ ": " ^ e)
    | Ok oc ->
      if not (R.equal_states oc.R.states live_states) then
        Alcotest.fail
          (Format.asprintf "%s: clean recovery %a but live object %a" X.name R.pp_states
             oc.R.states R.pp_states live_states));
    (* Every kill point: checkpointed recovery = committed-prefix replay. *)
    let kps = Wal.Crash.kill_points raw in
    let image = Wal.Crash.image raw in
    List.iter
      (fun kp ->
        let recs, _ = Wal.Log.parse (image kp) in
        match (R.recover ~obj:name recs, R.reference ~obj:name recs) with
        | Error e, _ | _, Error e ->
          Alcotest.fail (Format.asprintf "%s at %a: %s" X.name Wal.Crash.pp_kill_point kp e)
        | Ok oc, Ok ref_states ->
          if not (R.equal_states oc.R.states ref_states) then
            Alcotest.fail
              (Format.asprintf "%s at %a: recovered %a, committed prefix %a" X.name
                 Wal.Crash.pp_kill_point kp R.pp_states oc.R.states R.pp_states ref_states))
      kps;
    List.length kps

  let qcheck_test =
    QCheck2.Test.make
      ~name:(Printf.sprintf "recover = committed prefix at every kill point (%s)" X.name)
      ~count:8
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        ignore (check ~seed ~txns:12 ~ops:4 : int);
        true)
end

let tests =
  let prop (module X : TESTABLE) =
    let module P = Crash_prop (X) in
    QCheck_alcotest.to_alcotest P.qcheck_test
  in
  List.map prop
    [
      (module Adt.Fifo_queue : TESTABLE);
      (module Adt.Semiqueue);
      (module Adt.Account);
      (module Adt.Counter);
      (module Adt.Directory);
      (module Adt.File_adt);
      (module Adt.Log_adt);
      (module Adt.Bounded_buffer);
    ]

(* ---- partitioned objects: per-cell intentions across one log ----

   A partitioned object writes its cells into the same log as distinct
   sub-objects ("<name>/cell<k>", each with its own Object / Intention /
   Checkpoint records carrying the cell key), and one transaction's
   intentions routinely span several cells — a broadcast Post, a
   draining Debit sweep, a multi-key directory transaction.  The
   property is the same as above but quantified per cell at every kill
   point: checkpointed redo of each cell equals that cell's
   committed-prefix replay, so a crash mid-multi-cell-transaction
   either commits the transaction in every cell or discards it in every
   cell (the commit record is shared).  A cell whose Object record is
   past the cut recovers to the initial state on both paths, which is
   exactly what the live system would rebuild.  Both group-commit modes
   are part of the generated input. *)

module Crash_part (X : TESTABLE) = struct
  module R = Wal.Recover.Make (X)

  (* [run] drives a sequential durable workload against a partitioned
     object on a fresh log and returns each materialized cell's (name,
     live committed states). *)
  let check ~name ~run ~group_commit ~seed =
    let path = temp_wal () in
    let live = run ~group_commit ~seed path in
    let raw = Wal.Log.read_file path in
    let records, tail = Wal.Log.parse raw in
    if tail <> Wal.Log.Clean then Alcotest.fail "finished run left a torn log";
    List.iter
      (fun (cell, states) ->
        match R.recover ~obj:cell records with
        | Error e -> Alcotest.fail (name ^ ": " ^ e)
        | Ok oc ->
          if not (R.equal_states oc.R.states states) then
            Alcotest.fail
              (Format.asprintf "%s: clean recovery of %s %a but live cell %a" name cell
                 R.pp_states oc.R.states R.pp_states states))
      live;
    let kps = Wal.Crash.kill_points raw in
    let image = Wal.Crash.image raw in
    List.iter
      (fun kp ->
        let recs, _ = Wal.Log.parse (image kp) in
        List.iter
          (fun (cell, _) ->
            match (R.recover ~obj:cell recs, R.reference ~obj:cell recs) with
            | Error e, _ | _, Error e ->
              Alcotest.fail
                (Format.asprintf "%s/%s at %a: %s" name cell Wal.Crash.pp_kill_point kp e)
            | Ok oc, Ok ref_states ->
              if not (R.equal_states oc.R.states ref_states) then
                Alcotest.fail
                  (Format.asprintf "%s/%s at %a: recovered %a, committed prefix %a" name
                     cell Wal.Crash.pp_kill_point kp R.pp_states oc.R.states R.pp_states
                     ref_states))
          live)
      kps;
    List.length kps

  let qcheck_test ~name ~run =
    QCheck2.Test.make
      ~name:(Printf.sprintf "per-cell recover = committed prefix at every kill point (%s)" name)
      ~count:6
      QCheck2.Gen.(pair (int_range 0 10_000) bool)
      (fun (seed, group_commit) ->
        ignore (check ~name ~run ~group_commit ~seed : int);
        true)
end

module CPD = Crash_part (Adt.Directory)
module CPA = Crash_part (Adt.Account)

let lcg_stream seed =
  let lcg = ref (1 + abs seed) in
  fun () ->
    lcg := 1 + (!lcg * 48271 mod 0x7fffffff);
    !lcg

let run_pdir ~group_commit ~seed path =
  let w = Wal.Log.create ~group_commit ~fsync:false ~compact_threshold:max_int path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let d = Part.Pdir.create ~wal:(w, Adt.Directory.codec) ~cells:4 () in
  let next = lcg_stream seed in
  for t = 1 to 12 do
    ignore
      (Runtime.Manager.run_once mgr (fun txn ->
           (* 3-5 keys per transaction, spreading intentions over cells. *)
           for _ = 1 to 3 + (next () mod 3) do
             let key = next () mod 8 in
             let inv =
               match next () mod 3 with
               | 0 -> Adt.Directory.Insert key
               | 1 -> Adt.Directory.Remove key
               | _ -> Adt.Directory.Member key
             in
             ignore (Part.Pdir.invoke d txn inv)
           done;
           if t mod 3 = 0 then Runtime.Manager.abort_in ~reason:"crash-test abort" ())
        : (unit, string) result)
  done;
  let live =
    List.map
      (fun (_, o) -> (Part.Pdir.O.name o, Part.Pdir.O.committed_states o))
      (Part.Pdir.C.created (Part.Pdir.cells d))
  in
  Wal.Log.close w;
  live

let run_paccount ~group_commit ~seed path =
  let w = Wal.Log.create ~group_commit ~fsync:false ~compact_threshold:max_int path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let a = Part.Paccount.create ~wal:(w, Adt.Account.codec) ~cells:3 () in
  let next = lcg_stream seed in
  Runtime.Manager.run mgr (fun txn ->
      ignore (Part.Paccount.invoke a txn (Adt.Account.Credit 40)));
  for t = 1 to 12 do
    ignore
      (Runtime.Manager.run_once mgr (fun txn ->
           for _ = 1 to 2 + (next () mod 2) do
             let amount = 1 + (next () mod 6) in
             let inv =
               match next () mod 6 with
               (* Posts broadcast to every cell and big debits sweep, so
                  most transactions carry multi-cell intentions. *)
               | 0 -> Adt.Account.Post 1
               | 1 | 2 -> Adt.Account.Credit amount
               | _ -> Adt.Account.Debit (2 * amount)
             in
             ignore (Part.Paccount.invoke a txn inv)
           done;
           if t mod 3 = 0 then Runtime.Manager.abort_in ~reason:"crash-test abort" ())
        : (unit, string) result)
  done;
  let live =
    List.map
      (fun (_, o) -> (Part.Paccount.O.name o, Part.Paccount.O.committed_states o))
      (Part.Paccount.C.created (Part.Paccount.cells a))
  in
  Wal.Log.close w;
  live

let partitioned_tests =
  [
    QCheck_alcotest.to_alcotest (CPD.qcheck_test ~name:"pdir" ~run:run_pdir);
    QCheck_alcotest.to_alcotest (CPA.qcheck_test ~name:"paccount" ~run:run_paccount);
  ]

(* ---- the image of an open log ----

   A log that is still open (or was killed) has space reserved past its
   last record.  Its kill points and every image cut along them must be
   those of the same records closed: the frame walk ends at the last
   record, and a torn tail is cut from there, not from the file's end. *)
let test_open_image_cuts_like_closed () =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:max_int path in
  Wal.Log.append w (Wal.Log.Object { obj = "c"; adt = "Counter"; cell = None });
  for txn = 1 to 20 do
    Wal.Log.append w (Wal.Log.Intention { obj = "c"; txn; payload = "\x02"; cell = None });
    Wal.Log.append w (Wal.Log.Commit { txn; ts = txn })
  done;
  let opened = Wal.Log.read_file path in
  Wal.Log.close w;
  let closed = Wal.Log.read_file path in
  if String.length opened <= String.length closed then
    Alcotest.fail "an open log has no reserved space past its records";
  let kps = Wal.Crash.kill_points opened in
  if kps <> Wal.Crash.kill_points closed then Alcotest.fail "kill points differ";
  List.iter
    (fun kp ->
      if Wal.Crash.image opened kp <> Wal.Crash.image closed kp then
        Alcotest.fail (Format.asprintf "images differ %a" Wal.Crash.pp_kill_point kp))
    kps

let () =
  Alcotest.run "wal-crash"
    [
      ("kill-points", tests);
      ("kill-points-partitioned", partitioned_tests);
      ( "reserved-space",
        [ Alcotest.test_case "open image cuts like closed" `Quick test_open_image_cuts_like_closed ]
      );
    ]
