(* The 2PC kill-point matrix as a test: crash the coordinator at every
   protocol milestone (both group-commit modes), recover every shard
   from the on-disk logs alone, and require the victim's fate to match
   the decision log's verdict on every shard — commit at the decided
   timestamp when a Decide survived, presumed abort otherwise. *)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-dist-crash-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let check_matrix m =
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        (Printf.sprintf "kill=%s gc=%b"
           (Sim.Shard_crash.site_label c.Sim.Shard_crash.k_site)
           c.Sim.Shard_crash.k_gc)
        [] c.Sim.Shard_crash.k_failures)
    m.Sim.Shard_crash.cells;
  Alcotest.(check bool) "matrix ok" true (Sim.Shard_crash.ok m)

let test_matrix_two_shards () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let m = Sim.Shard_crash.run ~dir () in
      (* Every milestone of a two-participant commit and the three
         sites that drop unsynced bytes, twice (both group-commit
         modes). *)
      Alcotest.(check int) "cell count" 22 (List.length m.Sim.Shard_crash.cells);
      check_matrix m)

(* Bystander shards and committed cross-shard background traffic must
   not disturb the verdicts. *)
let test_matrix_with_bystanders () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> check_matrix (Sim.Shard_crash.run ~shards:3 ~cross_pct:25. ~dir ()))

let () =
  Alcotest.run "dist-crash"
    [
      ( "kill-matrix",
        [
          Alcotest.test_case "every kill point, both sync modes" `Quick
            test_matrix_two_shards;
          Alcotest.test_case "with bystander shards and cross traffic" `Quick
            test_matrix_with_bystanders;
        ] );
    ]
