(* The 2PC kill-point matrix.

   One cross-shard transfer (the victim) is driven through the
   coordinator with a step hook that raises at a chosen protocol
   milestone — modelling a coordinator crash at exactly that point, with
   no cleanup: participants are left mid-protocol exactly as a real
   crash would.  Recovery then runs from the on-disk logs alone
   ([Wal.Log.read] on each shard, [Dist.Decision_log.read] on the
   decision log, in-doubt resolution via [Wal.Recover.resolve]) and the
   cell checks the paper's recovery contract:

   - the victim's fate equals the decision log's verdict (commit at the
     decided timestamp if a [Decide] survived, presumed abort
     otherwise), identically on every shard;
   - checkpointed recovery of each shard equals the reference replay of
     the same (resolved) records — no committed work lost or invented.

   The matrix covers every milestone of a two-participant commit
   (before any prepare; after each prepare, undecided; after the
   decision is durable; after each participant's commit record) in both
   group-commit modes, plus an unkilled control.

   Every vote is appended before the first is forced, the votes are
   forced one log after another, and commit records are not forced at
   all, so a crash can also drop records a participant log wrote but
   never synced.  Three more sites model that: a vote whose force dies
   (the votes before it durable, the later ones never forced), a kill
   after every commit record was appended, and a crash right after the
   victim committed.  Their participant log images are cut at each
   log's durable LSN at the moment of the crash; the decision log keeps
   every byte it wrote, unforced [Forget]s included — the worst case
   for a decision forgotten before its commit records were durable. *)

exception Killed of string

type site =
  | No_kill
  | Before_prepare
  | Vote_lost of int (* votes before k durable, k's force dies, later ones never forced *)
  | After_prepare of int (* killed after the (k+1)-th vote *)
  | After_decide
  | After_ack of int (* killed after the (k+1)-th participant commit *)
  | Acks_lost (* killed after the last commit record; unsynced bytes lost *)
  | Commits_lost (* crashed once the victim committed; unsynced bytes lost *)

let site_label = function
  | No_kill -> "none"
  | Before_prepare -> "before-prepare"
  | Vote_lost k -> Printf.sprintf "vote-lost-%d" k
  | After_prepare k -> Printf.sprintf "prepared-%d" k
  | After_decide -> "decided"
  | After_ack k -> Printf.sprintf "acked-%d" k
  | Acks_lost -> "acks-lost"
  | Commits_lost -> "commits-lost"

(* Sites for a [parts]-participant victim, in protocol order. *)
let sites parts =
  [ No_kill; Before_prepare ]
  @ List.init parts (fun k -> Vote_lost k)
  @ List.init parts (fun k -> After_prepare k)
  @ [ After_decide ]
  @ List.init parts (fun k -> After_ack k)
  @ [ Acks_lost; Commits_lost ]

(* Sites whose participant logs lose what they never synced. *)
let drops_unsynced = function
  | Vote_lost _ | Acks_lost | Commits_lost -> true
  | No_kill | Before_prepare | After_prepare _ | After_decide | After_ack _ -> false

let hook ~parts site =
  let prepares = ref 0 and acks = ref 0 in
  fun (st : Dist.Coordinator.step) ->
    let kill () = raise (Killed (site_label site)) in
    match (st, site) with
    | Dist.Coordinator.Executed, Before_prepare -> kill ()
    | Dist.Coordinator.Prepared _, After_prepare k ->
      incr prepares;
      if !prepares > k then kill ()
    | Dist.Coordinator.Decided _, After_decide -> kill ()
    | Dist.Coordinator.Acked _, After_ack k ->
      incr acks;
      if !acks > k then kill ()
    | Dist.Coordinator.Acked _, Acks_lost ->
      incr acks;
      if !acks = parts then kill ()
    | _ -> ()

(* The crash image of one log: its bytes as written, cut at its durable
   LSN when unsynced bytes are lost.  Shard logs never rewrite here
   ([compact_threshold] is unbounded), so record [i] of the file has LSN
   [i + 1]. *)
let image ~cut w =
  let raw = Wal.Log.read_file (Wal.Log.path w) in
  if not cut then Ok raw
  else if Wal.Log.file_records w <> Wal.Log.appended_lsn w then
    Error (Wal.Log.path w ^ " was rewritten: its records no longer have their LSNs")
  else
    match Wal.Log.durable_lsn w with
    | 0 -> Ok ""
    | lsn -> Ok (Wal.Crash.image raw (Wal.Crash.After_record (lsn - 1)))

type cell = {
  k_site : site;
  k_gc : bool;  (* group commit on *)
  k_gid : int;
  k_decided : int option; (* surviving Decide, if any *)
  k_fate : (int * int option) list; (* shard -> victim commit ts after recovery *)
  k_resolutions : int; (* in-doubt resolutions applied across shards *)
  k_failures : string list;
}

let cell_ok c = c.k_failures = []

type matrix = { cells : cell list }

let ok m = List.for_all cell_ok m.cells

let pp_cell ppf c =
  Format.fprintf ppf "  [%s] kill=%-14s gid=%d decide=%-6s fate=%s resolved=%d: %s"
    (if c.k_gc then "gc" else "solo")
    (site_label c.k_site) c.k_gid
    (match c.k_decided with Some ts -> "ts=" ^ string_of_int ts | None -> "absent")
    (String.concat ","
       (List.map
          (fun (si, f) ->
            Printf.sprintf "s%d:%s" si
              (match f with Some ts -> string_of_int ts | None -> "aborted"))
          c.k_fate))
    c.k_resolutions
    (match c.k_failures with
    | [] -> "OK"
    | fs -> "FAIL: " ^ String.concat "; " fs)

let pp ppf m =
  Format.fprintf ppf "== CRASH-2PC: coordinator kill-point matrix ==@.";
  List.iter (fun c -> Format.fprintf ppf "%a@." pp_cell c) m.cells;
  Format.fprintf ppf "   %d cells: %s@." (List.length m.cells)
    (if ok m then "every kill point recovers to the decision log's verdict: OK"
     else "FAILED")

module R = Wal.Recover.Make (Adt.Account)

(* Background traffic so the victim's records sit in the middle of real
   logs: a few local transactions per shard, and (with [cross_pct] > 0)
   some committed cross-shard transfers through the same coordinator. *)
let background s ~shards ~cross_pct =
  for domain = 0 to shards - 1 do
    for seq = 0 to 3 do
      Shard_exp.txn_body s ~think_us:0. ~seed:7 ~cross_pct ~domain ~seq
    done
  done

let run_cell ~dir ~group_commit ~shards ~cross_pct site =
  let sub =
    Filename.concat dir
      (Printf.sprintf "%s-%s" (if group_commit then "gc" else "solo") (site_label site))
  in
  Driver.ensure_dir sub;
  let s =
    Shard_exp.make_setup ~wal_dir:sub ~fsync:true ~group_commit
      ~compact_threshold:max_int ~shards ()
  in
  background s ~shards ~cross_pct;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let wal i = Option.get (Dist.Shard.wal (Dist.Router.shard s.router i)) in
  (* The victim: a transfer spanning shards 0 and 1, killed mid-protocol
     by the step hook, or by a sync hook that fails one vote's force. *)
  Dist.Coordinator.set_step_hook s.coord (hook ~parts:2 site);
  (match site with
  | Vote_lost k ->
    let fired = ref false in
    Wal.Log.set_sync_hook (wal k) (fun () ->
        if not !fired then begin
          fired := true;
          raise (Killed (site_label site))
        end)
  | _ -> ());
  let gid = ref (-1) in
  let outcome =
    match
      Dist.Coordinator.run_once s.coord (fun ctx ->
          gid := Dist.Coordinator.id ctx;
          let b0 = Dist.Coordinator.branch ctx (Dist.Router.shard s.router 0) in
          let b1 = Dist.Coordinator.branch ctx (Dist.Router.shard s.router 1) in
          ignore (Shard_exp.Aobj.invoke s.accounts.(0) b0 (Adt.Account.Debit 7));
          ignore (Shard_exp.Aobj.invoke s.accounts.(1) b1 (Adt.Account.Credit 7)))
    with
    | Ok () -> `Committed
    | Error reason -> `Aborted reason
    | exception Killed _ -> `Killed
  in
  Dist.Coordinator.clear_step_hook s.coord;
  Wal.Log.clear_sync_hook (wal 0);
  Wal.Log.clear_sync_hook (wal 1);
  (* The crash image, taken now: the participants' logs lose what they
     never synced, every other log keeps what it wrote. *)
  let images =
    if not (drops_unsynced site) then None
    else
      let logs =
        List.init shards (fun i -> (wal i, i < 2))
        @ [ (Dist.Decision_log.log (Option.get s.dlog), false) ]
      in
      Some (List.map (fun (w, cut) -> (Wal.Log.path w, image ~cut w)) logs)
  in
  let wal_paths = List.init shards (fun i -> Dist.Shard.wal_file ~dir:sub i) in
  let dpath = Dist.Shard.decision_file sub in
  Shard_exp.close_setup s;
  (* Recovery reads the crash image where there is one, else the logs as
     closed. *)
  let wal_paths, dpath =
    match images with
    | None -> (wal_paths, dpath)
    | Some images ->
      let crash = Filename.concat sub "crash" in
      Driver.ensure_dir crash;
      let place path =
        let copy = Filename.concat crash (Filename.basename path) in
        (match List.assoc path images with
        | Ok raw -> Out_channel.with_open_bin copy (fun oc -> Out_channel.output_string oc raw)
        | Error e ->
          fail "%s" e;
          Out_channel.with_open_bin copy ignore);
        copy
      in
      (List.map place wal_paths, place dpath)
  in
  (* --- everything below runs from the on-disk state alone --- *)
  let decisions = Dist.Decision_log.read dpath in
  let decided g = List.assoc_opt g decisions in
  let resolutions = ref 0 in
  let fate =
    List.mapi
      (fun i path ->
        let records, _tail = Wal.Log.read path in
        let patched, res = Wal.Recover.resolve ~decided records in
        resolutions := !resolutions + List.length res;
        let name = Printf.sprintf "s%d/account" i in
        (match (R.recover ~obj:name patched, R.reference ~obj:name patched) with
        | Error e, _ -> fail "shard %d recover: %s" i e
        | _, Error e -> fail "shard %d reference replay: %s" i e
        | Ok oc, Ok ref_states ->
          if not (R.equal_states oc.R.states ref_states) then
            fail "shard %d: recovery %s disagrees with reference replay" i
              (Format.asprintf "%a" R.pp_states oc.R.states));
        (i, List.assoc_opt !gid (Wal.Recover.committed patched)))
      wal_paths
  in
  (* The recovery contract.  Participants are shards 0 and 1; the others
     never saw the victim and must not commit it either way. *)
  let expect_commit =
    match site with
    | No_kill | After_decide | After_ack _ | Acks_lost | Commits_lost -> true
    | Before_prepare | Vote_lost _ | After_prepare _ -> false
  in
  (match (site, outcome) with
  | (No_kill | Commits_lost), `Committed -> ()
  | (No_kill | Commits_lost), _ -> fail "the victim did not commit"
  | _, `Killed -> ()
  | _, `Committed -> fail "kill hook did not fire (committed)"
  | _, `Aborted r -> fail "kill hook did not fire (aborted: %s)" r);
  let participant_fates =
    List.filter_map (fun (si, f) -> if si < 2 then Some (si, f) else None) fate
  in
  List.iter
    (fun (si, f) ->
      match (expect_commit, f, decided !gid) with
      | true, None, _ -> fail "shard %d lost the victim (decided commit)" si
      | true, Some ts, Some dts when ts <> dts ->
        fail "shard %d recovered the victim at ts=%d, decision log says %d" si ts dts
      | false, Some ts, _ ->
        fail "shard %d committed the victim at ts=%d (presumed abort)" si ts
      | _ -> ())
    participant_fates;
  (match List.sort_uniq compare (List.filter_map snd participant_fates) with
  | [] | [ _ ] -> ()
  | tss ->
    fail "participants disagree on the victim's timestamp {%s}"
      (String.concat "," (List.map string_of_int tss)));
  List.iter
    (fun (si, f) ->
      match f with
      | Some ts -> fail "non-participant shard %d committed the victim (ts=%d)" si ts
      | None -> ())
    (List.filter (fun (si, _) -> si >= 2) fate);
  (* Presumed abort must be the *absence* of a decision, and a durable
     decision must survive any post-decision kill (only the unkilled
     control is allowed to have forgotten it after full acks). *)
  (match (site, decided !gid) with
  | (Before_prepare | Vote_lost _ | After_prepare _), Some ts ->
    fail "decision log holds ts=%d for an undecided victim" ts
  | (After_decide | After_ack _ | Acks_lost | Commits_lost), None ->
    fail "decision log lost a durable decision"
  | _ -> ());
  {
    k_site = site;
    k_gc = group_commit;
    k_gid = !gid;
    k_decided = decided !gid;
    k_fate = fate;
    k_resolutions = !resolutions;
    k_failures = List.rev !failures;
  }

let run ?(shards = 2) ?(cross_pct = 0.) ~dir () =
  Driver.ensure_dir dir;
  let shards = max 2 shards in
  let cells =
    List.concat_map
      (fun gc ->
        List.map (run_cell ~dir ~group_commit:gc ~shards ~cross_pct) (sites 2))
      [ true; false ]
  in
  { cells }
