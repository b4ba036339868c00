(* Tests for the durability subsystem: binary framing, per-ADT codecs,
   the log writer's truncation bound, the snapshot-pin/checkpoint
   interaction, and whole-run recovery. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let temp_wal () =
  let f = Filename.temp_file "hybrid-cc-test" ".wal" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

(* ---------------- Binio round-trips ---------------- *)

let binio_int_roundtrip =
  QCheck2.Test.make ~name:"Binio zig-zag varint round-trips" ~count:500
    QCheck2.Gen.(
      oneof [ int; int_range (-1000) 1000; return max_int; return min_int; return 0 ])
    (fun n ->
      let buf = Buffer.create 16 in
      Util.Binio.w_int buf n;
      let r = Util.Binio.reader (Buffer.contents buf) in
      let n' = Util.Binio.r_int r in
      n = n' && Util.Binio.eof r)

let binio_string_list_roundtrip =
  QCheck2.Test.make ~name:"Binio string lists round-trip" ~count:200
    QCheck2.Gen.(list_size (0 -- 8) (string_size (0 -- 20)))
    (fun ss ->
      let buf = Buffer.create 64 in
      Util.Binio.w_list Util.Binio.w_string buf ss;
      let r = Util.Binio.reader (Buffer.contents buf) in
      Util.Binio.r_list Util.Binio.r_string r = ss)

(* ---------------- framing ---------------- *)

let sample_records =
  [
    Wal.Log.Object { obj = "q#1"; adt = "FIFO-Queue"; cell = None };
    Wal.Log.Intention { obj = "q#1"; txn = 7; payload = "\x01\x02payload"; cell = None };
    Wal.Log.Commit { txn = 7; ts = 1 };
    Wal.Log.Abort { txn = 9 };
    Wal.Log.Checkpoint { obj = "q#1"; upto = 1; payload = ""; cell = None };
    Wal.Log.Object { obj = "d#2/cell3"; adt = "Directory"; cell = Some 3 };
    Wal.Log.Intention { obj = "d#2/cell3"; txn = 8; payload = "\x03"; cell = Some 3 };
    Wal.Log.Checkpoint { obj = "d#2/cell3"; upto = 2; payload = "\x00"; cell = Some 3 };
  ]

let frame_all records =
  let buf = Buffer.create 256 in
  List.iter (Wal.Log.frame buf) records;
  Buffer.contents buf

let test_frame_roundtrip () =
  let raw = frame_all sample_records in
  let records, tail = Wal.Log.parse raw in
  check_bool "clean tail" true (tail = Wal.Log.Clean);
  check_int "count" (List.length sample_records) (List.length records);
  List.iter2
    (fun a b -> check_bool "record equal" true (Wal.Log.equal_record a b))
    sample_records records

let test_torn_tail_every_cut () =
  (* Cutting the image at any byte must recover exactly the records
     whose frames survived whole, and report the tear unless the cut
     falls on a frame boundary. *)
  let raw = frame_all sample_records in
  let boundaries =
    List.to_seq sample_records
    |> Seq.scan (fun off r -> off + Wal.Log.framed_size r) 0
    |> List.of_seq
  in
  for cut = 0 to String.length raw do
    let records, tail = Wal.Log.parse (String.sub raw 0 cut) in
    let whole = List.filter (fun b -> b <= cut) boundaries |> List.length in
    check_int (Printf.sprintf "records at cut %d" cut) (whole - 1) (List.length records);
    let on_boundary = List.mem cut boundaries in
    check_bool
      (Printf.sprintf "tail at cut %d" cut)
      on_boundary (tail = Wal.Log.Clean)
  done

let test_corrupt_byte_stops_parse () =
  let raw = frame_all sample_records in
  let b = Bytes.of_string raw in
  (* Flip a byte inside the second frame's payload: frame 1 must still
     parse, everything from frame 2 on is dropped as torn. *)
  let off1 = Wal.Log.framed_size (List.nth sample_records 0) in
  Bytes.set b (off1 + 9) '\xff';
  let records, tail = Wal.Log.parse (Bytes.to_string b) in
  check_int "one record survives" 1 (List.length records);
  check_bool "torn at second frame" true (tail = Wal.Log.Torn off1)

let test_reserved_zeros_after_garbage_are_torn () =
  (* Unwritten reserved space is a zero run to the end: clean.  Garbage
     inside it is a torn frame at the garbage, zeros behind it or not. *)
  let raw = frame_all sample_records in
  let zeros n = String.make n '\000' in
  let n = List.length sample_records in
  let records, tail = Wal.Log.parse (raw ^ zeros 4096) in
  check_int "every record before the zeros" n (List.length records);
  check_bool "zero run to the end is clean" true (tail = Wal.Log.Clean);
  let records, tail = Wal.Log.parse (raw ^ "\x07garbage" ^ zeros 4096) in
  check_int "every record before the garbage" n (List.length records);
  check_bool "garbage then zeros is torn at the garbage" true
    (tail = Wal.Log.Torn (String.length raw));
  let _, tail = Wal.Log.parse (raw ^ zeros 16 ^ "\x01" ^ zeros 16) in
  check_bool "zeros not reaching the end are torn" true
    (tail = Wal.Log.Torn (String.length raw));
  let _, tail = Wal.Log.parse (raw ^ zeros 7) in
  check_bool "fewer zeros than a header are torn" true
    (tail = Wal.Log.Torn (String.length raw))

(* ---------------- codec round-trips for all 8 ADTs ---------------- *)

module type TESTABLE = sig
  include Spec.Adt_sig.BOUNDED

  val codec : (inv, res, state) Wal.Codec.t
end

let testable_adts : (module TESTABLE) list =
  [
    (module Adt.Fifo_queue);
    (module Adt.Semiqueue);
    (module Adt.Account);
    (module Adt.Counter);
    (module Adt.Directory);
    (module Adt.File_adt);
    (module Adt.Log_adt);
    (module Adt.Bounded_buffer);
  ]

(* Deterministic walk driver: visit states reachable from [initial] by
   legal steps, checking the state codec at every state and the op codec
   on every universe operation. *)
let codec_roundtrip_test (module X : TESTABLE) =
  let name = Printf.sprintf "codec round-trips (%s)" X.name in
  let run () =
    List.iter
      (fun (i, r) ->
        check_bool
          (Format.asprintf "op %a/%a" X.pp_inv i X.pp_res r)
          true
          (Wal.Codec.roundtrip_op X.codec ~equal_inv:X.equal_inv ~equal_res:X.equal_res
             (i, r)))
      X.universe;
    let invs = List.map fst X.universe in
    let n_invs = List.length invs in
    let lcg = ref 123457 in
    let next () =
      lcg := 1 + (!lcg * 48271 mod 0x7fffffff);
      !lcg
    in
    let state = ref X.initial in
    for k = 0 to 99 do
      check_bool
        (Format.asprintf "state %a (step %d)" X.pp_state !state k)
        true
        (Wal.Codec.roundtrip_state X.codec ~equal_state:X.equal_state !state);
      (* advance by the first legal invocation at a pseudo-random offset *)
      let start = next () mod n_invs in
      let rec advance tries =
        if tries < n_invs then
          match X.step !state (List.nth invs ((start + tries) mod n_invs)) with
          | (_, s') :: _ -> state := s'
          | [] -> advance (tries + 1)
      in
      advance 0
    done
  in
  Alcotest.test_case name `Quick run

(* ---------------- writer truncation bound ---------------- *)

module Cobj = Runtime.Atomic_obj.Make (Adt.Counter)

let test_log_stays_bounded () =
  (* Sequential committed increments: every transaction folds as the
     horizon advances, so the live set stays O(1) and rewrites must keep
     the file near the compaction threshold no matter how many
     transactions ran. *)
  let path = temp_wal () in
  let threshold = 64 in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:threshold path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = Cobj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let txns = 500 in
  for _ = 1 to txns do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)))
  done;
  let live = Wal.Log.live w in
  let file_records = Wal.Log.file_records w in
  Wal.Log.close w;
  check_bool
    (Printf.sprintf "live set is O(1), got %d" live)
    true (live <= 8);
  (* Every transaction appended >= 2 records (intention + commit), so an
     unbounded log would hold >= 1000; the rewrite bound is live +
     threshold + a slack batch. *)
  check_bool
    (Printf.sprintf "file records bounded by compaction, got %d" file_records)
    true
    (file_records <= live + threshold + 16);
  (* The compacted file still recovers the full committed history. *)
  let records, tail = Wal.Log.read path in
  check_bool "clean tail" true (tail = Wal.Log.Clean);
  let module R = Wal.Recover.Make (Adt.Counter) in
  match R.recover ~obj:(Cobj.name c) records with
  | Error e -> Alcotest.fail e
  | Ok oc -> check_bool "recovered count" true (R.equal_states oc.R.states [ txns ])

(* ---------------- reserved space ---------------- *)

let file_size path = (Unix.stat path).Unix.st_size
let records_bytes records = List.fold_left (fun n r -> n + Wal.Log.framed_size r) 0 records

let test_open_log_reads_back_clean () =
  (* While the log is open its file is longer than its records; what a
     crash would leave reads back every appended record, tail clean. *)
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:max_int path in
  List.iter (Wal.Log.append w) sample_records;
  let records, tail = Wal.Log.read path in
  check_bool "file longer than its records" true
    (file_size path > records_bytes sample_records);
  check_bool "clean tail" true (tail = Wal.Log.Clean);
  check_bool "every appended record" true (List.equal Wal.Log.equal_record records sample_records);
  Wal.Log.close w

let test_close_leaves_record_bytes () =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:max_int path in
  List.iter (Wal.Log.append w) sample_records;
  Wal.Log.close w;
  check_int "file is exactly its records" (records_bytes sample_records) (file_size path);
  check_bool "same bytes as framing them" true
    (Wal.Log.read_file path = frame_all sample_records)

let test_rewrite_successor_reserved () =
  (* Right after the append that trips a rewrite, the file is the
     successor: the live set, with space reserved past it.  A crash
     then (the open file's image) and a clean close both recover the
     committed state. *)
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:16 path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = Cobj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let txns = ref 0 in
  while Wal.Log.rewrites w = 0 do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)));
    incr txns
  done;
  let records, tail = Wal.Log.read path in
  check_bool "clean tail" true (tail = Wal.Log.Clean);
  check_int "the successor holds the live set" (Wal.Log.file_records w) (List.length records);
  check_bool "the successor is longer than its records" true
    (file_size path > records_bytes records);
  for _ = 1 to 50 do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)));
    incr txns
  done;
  let module R = Wal.Recover.Make (Adt.Counter) in
  let recovers label =
    match R.recover ~obj:(Cobj.name c) (fst (Wal.Log.read path)) with
    | Error e -> Alcotest.fail e
    | Ok oc -> check_bool label true (R.equal_states oc.R.states (Cobj.committed_states c))
  in
  recovers "the open file recovers the committed state";
  Wal.Log.close w;
  recovers "the closed file recovers the committed state";
  check_bool "every increment committed" true
    (Cobj.committed_states c = [ !txns ])

(* ---------------- amortised rewrites ---------------- *)

let test_live_count_matches_rewrite () =
  (* The live count is kept incrementally; a rewrite writes exactly the
     live set, so right after the append that trips one the file must
     hold [live] records.  Threshold 0 rewrites whenever the dead
     records reach the live set, across every record kind: declarations,
     active and aborted intentions, covered and uncovered commits,
     in-doubt and resolved prepares, retained and forgotten decisions,
     and checkpoints that advance or would regress. *)
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:0 path in
  let rng = Random.State.make [| 7 |] in
  let objs = [| "a"; "b"; "c" |] in
  let pick () = objs.(Random.State.int rng (Array.length objs)) in
  let seen = ref 0 and mismatches = ref [] in
  let append r =
    Wal.Log.append w r;
    let n = Wal.Log.rewrites w in
    if n > !seen then begin
      seen := n;
      let f = Wal.Log.file_records w and l = Wal.Log.live w in
      if f <> l then mismatches := (n, f, l) :: !mismatches
    end
  in
  Array.iter (fun obj -> append (Wal.Log.Object { obj; adt = "Counter"; cell = None })) objs;
  let ts = ref 0 and undecided = Queue.create () in
  for txn = 1 to 2_000 do
    for _ = 0 to Random.State.int rng 3 do
      append (Wal.Log.Intention { obj = pick (); txn; payload = "x"; cell = None })
    done;
    incr ts;
    (match Random.State.int rng 6 with
    | 0 -> append (Wal.Log.Abort { txn })
    | 1 -> () (* left active *)
    | 2 -> append (Wal.Log.Prepare { txn; gtxn = txn; ts = !ts }) (* left in doubt *)
    | 3 ->
      append (Wal.Log.Prepare { txn; gtxn = txn; ts = !ts });
      append (Wal.Log.Commit { txn; ts = !ts })
    | _ -> append (Wal.Log.Commit { txn; ts = !ts }));
    if Random.State.int rng 4 = 0 then begin
      append (Wal.Log.Decide { gtxn = txn; ts = !ts });
      Queue.push txn undecided
    end;
    if Queue.length undecided > 3 then append (Wal.Log.Forget { gtxn = Queue.pop undecided });
    if Random.State.int rng 3 = 0 then
      append
        (Wal.Log.Checkpoint
           { obj = pick (); upto = !ts - Random.State.int rng 8; payload = ""; cell = None })
  done;
  Wal.Log.close w;
  check_bool (Printf.sprintf "rewrites happened (%d)" !seen) true (!seen > 5);
  List.iter
    (fun (n, f, l) -> Alcotest.failf "after rewrite %d the file holds %d records, live %d" n f l)
    !mismatches

let test_rewrite_under_group_commit () =
  (* Two domains commit through one group-commit log with a small
     floor, so rewrites interleave with sync leaders running outside the
     log mutex (a rewrite is deferred while one is). *)
  let path = temp_wal () in
  let floor = 32 in
  let w = Wal.Log.create ~fsync:false ~group_commit:true ~compact_threshold:floor path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let objs =
    Array.init 2 (fun i ->
        Cobj.create ~name:(Printf.sprintf "gc%d" i) ~wal:(w, Adt.Counter.codec)
          ~conflict:Adt.Counter.conflict_hybrid ())
  in
  let txns = 400 in
  let _ =
    Sim.Driver.loop { Sim.Driver.domains = 2; txns; think_us = 0. } (fun ~domain ~seq:_ ->
        Runtime.Manager.run mgr (fun txn ->
            ignore (Cobj.invoke objs.(domain) txn (Adt.Counter.Inc 1))))
  in
  let rewrites = Wal.Log.rewrites w in
  let live = Wal.Log.live w and file_records = Wal.Log.file_records w in
  let committed = Array.map Cobj.committed_states objs in
  Wal.Log.close w;
  check_bool (Printf.sprintf "rewrites > 0 (%d)" rewrites) true (rewrites > 0);
  (* Below the trigger the dead records number under max(floor, live);
     the slack covers the appends another domain makes while a sync
     leader defers the rewrite. *)
  let bound = max floor live + live + 16 in
  check_bool
    (Printf.sprintf "file records %d within %d (live %d)" file_records bound live)
    true (file_records <= bound);
  let records, tail = Wal.Log.read path in
  check_bool "clean tail" true (tail = Wal.Log.Clean);
  let module R = Wal.Recover.Make (Adt.Counter) in
  Array.iteri
    (fun i o ->
      match R.recover ~obj:(Cobj.name o) records with
      | Error e -> Alcotest.fail e
      | Ok oc ->
        check_bool
          (Printf.sprintf "recovered %s equals its committed state" (Cobj.name o))
          true
          (R.equal_states oc.R.states committed.(i));
        check_bool "every increment committed" true (R.equal_states committed.(i) [ txns ]))
    objs

(* One object pinned by a snapshot reader retains every commit (two
   records each) while a second object's commits die at its next
   checkpoint (three records each).  Returns the rewrites and the dead
   records appended. *)
let rewrites_under_pin ~floor n =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:floor path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let make name =
    Cobj.create ~name ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid ()
  in
  let pinned = make "pinned" and free = make "free" in
  let inc c = Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1))) in
  inc pinned;
  let reader = Model.Txn.make (-4242) in
  let src = Cobj.snapshot_source pinned in
  src.Runtime.Snapshot.pin reader (Runtime.Manager.stable_time mgr);
  for _ = 1 to n do
    inc pinned;
    inc free
  done;
  let rewrites = Wal.Log.rewrites w in
  let dead = Wal.Log.appended_lsn w - Wal.Log.live w in
  src.Runtime.Snapshot.unpin reader;
  Wal.Log.close w;
  (rewrites, dead)

let test_rewrites_logarithmic_under_pin () =
  (* After a rewrite leaves L live records, the next needs L dead ones,
     by which time the live set has grown to about 3L: rewrites grow as
     log N.  A fixed floor alone would rewrite every [floor] dead
     records, N * 3 / floor times, each copying the whole live set. *)
  let floor = 16 in
  let r1, _ = rewrites_under_pin ~floor 250 in
  let r8, dead8 = rewrites_under_pin ~floor 2_000 in
  check_bool (Printf.sprintf "rewrites happen (%d at N = 250)" r1) true (r1 > 0);
  (* 8x the commits should add about log3 8 = 2 rewrites *)
  check_bool
    (Printf.sprintf "rewrites %d at N = 2000 within %d + 6" r8 r1)
    true (r8 <= r1 + 6);
  check_bool
    (Printf.sprintf "far below a floor-only rule (%d vs %d)" r8 (dead8 / floor))
    true
    (r8 * 10 < dead8 / floor)

(* ---------------- snapshot pin blocks truncation ---------------- *)

let test_pin_blocks_checkpoint_past_pin () =
  (* Regression for the Theorem 24 / snapshot interaction: a pinned
     reader holds the horizon (Compacted.pin), so no checkpoint — and
     hence no log truncation — may pass the pin while it is held. *)
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = Cobj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  for _ = 1 to 5 do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)))
  done;
  let pin_at = Runtime.Manager.stable_time mgr in
  let reader = Model.Txn.make (-7777) in
  let src = Cobj.snapshot_source c in
  src.Runtime.Snapshot.pin reader pin_at;
  for _ = 1 to 40 do
    Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)))
  done;
  let upto_pinned = Wal.Log.checkpoint_upto w (Cobj.name c) in
  check_bool
    (Printf.sprintf "checkpoint %s must not pass pin %d"
       (match upto_pinned with Some t -> string_of_int t | None -> "none")
       pin_at)
    true
    (match upto_pinned with None -> true | Some t -> t <= pin_at);
  (* The pinned snapshot is still readable. *)
  (match Cobj.read_at c ~at:pin_at Adt.Counter.Read with
  | Some (Adt.Counter.Val 5) -> ()
  | _ -> Alcotest.fail "pinned snapshot must still see count 5");
  src.Runtime.Snapshot.unpin reader;
  (* Releasing the pin lets the horizon (and checkpoints) advance. *)
  Runtime.Manager.run mgr (fun txn -> ignore (Cobj.invoke c txn (Adt.Counter.Inc 1)));
  let upto_after = Wal.Log.checkpoint_upto w (Cobj.name c) in
  Wal.Log.close w;
  check_bool "checkpoint advances past the released pin" true
    (match upto_after with Some t -> t > pin_at | None -> false)

(* ---------------- recovery equals the live object ---------------- *)

let test_concurrent_recovery_matches_live () =
  let dir = Filename.temp_file "hybrid-cc-crash" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let r = Sim.Crash_exp.run ~scale:Sim.Driver.quick_scale ~dir Sim.Workload.queue_mixed in
      (match r.Sim.Crash_exp.c_final with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("clean recovery vs live object: " ^ e));
      check_bool "kill points all recover" true (r.Sim.Crash_exp.c_failures = []);
      check_bool "ran some kill points" true (r.Sim.Crash_exp.c_kill_points > 0))

(* ---------------- Durable registry ---------------- *)

let test_registry_covers_all_adts () =
  check_int "eight durable ADTs" 8 (List.length Sim.Durable.registry);
  List.iter
    (fun (module X : TESTABLE) ->
      check_bool X.name true (Option.is_some (Sim.Durable.find X.name)))
    testable_adts

let () =
  Alcotest.run "wal"
    [
      ( "binio",
        List.map QCheck_alcotest.to_alcotest
          [ binio_int_roundtrip; binio_string_list_roundtrip ] );
      ( "framing",
        [
          Alcotest.test_case "frame/parse round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn tail at every cut" `Quick test_torn_tail_every_cut;
          Alcotest.test_case "corrupt byte stops parse" `Quick test_corrupt_byte_stops_parse;
          Alcotest.test_case "garbage in reserved space is torn" `Quick
            test_reserved_zeros_after_garbage_are_torn;
        ] );
      ("codecs", List.map codec_roundtrip_test testable_adts);
      ( "writer",
        [
          Alcotest.test_case "log stays O(live) under commits" `Quick test_log_stays_bounded;
          Alcotest.test_case "open log reads back clean" `Quick test_open_log_reads_back_clean;
          Alcotest.test_case "close leaves exactly the records" `Quick
            test_close_leaves_record_bytes;
          Alcotest.test_case "rewrite reserves its successor" `Quick
            test_rewrite_successor_reserved;
          Alcotest.test_case "snapshot pin blocks truncation" `Quick
            test_pin_blocks_checkpoint_past_pin;
          Alcotest.test_case "live count equals what a rewrite keeps" `Quick
            test_live_count_matches_rewrite;
          Alcotest.test_case "rewrite under concurrent group commit" `Quick
            test_rewrite_under_group_commit;
          Alcotest.test_case "rewrites grow as log N under a pin" `Quick
            test_rewrites_logarithmic_under_pin;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "concurrent run recovers to live state" `Quick
            test_concurrent_recovery_matches_live;
          Alcotest.test_case "registry covers all ADTs" `Quick test_registry_covers_all_adts;
        ] );
    ]
