module B = Util.Binio

type record =
  | Object of { obj : string; adt : string; cell : int option }
  | Intention of { obj : string; txn : int; payload : string; cell : int option }
  | Commit of { txn : int; ts : int }
  | Abort of { txn : int }
  | Checkpoint of { obj : string; upto : int; payload : string; cell : int option }
  | Prepare of { txn : int; gtxn : int; ts : int }
  | Decide of { gtxn : int; ts : int }
  | Forget of { gtxn : int }

let equal_record (a : record) b = a = b

(* ---- record payload encoding (inside the frame) ---- *)

let tag_object = 1
let tag_intention = 2
let tag_commit = 3
let tag_abort = 4
let tag_checkpoint = 5
let tag_prepare = 6
let tag_decide = 7
let tag_forget = 8

(* Cell keys are non-negative; -1 on the wire means "whole object". *)
let w_cell buf = function None -> B.w_int buf (-1) | Some c -> B.w_int buf c

let r_cell r =
  match B.r_int r with
  | -1 -> None
  | c when c >= 0 -> Some c
  | c -> raise (B.Corrupt (Printf.sprintf "bad cell key %d" c))

let encode_record buf = function
  | Object { obj; adt; cell } ->
    B.w_tag buf tag_object;
    B.w_string buf obj;
    B.w_string buf adt;
    w_cell buf cell
  | Intention { obj; txn; payload; cell } ->
    B.w_tag buf tag_intention;
    B.w_string buf obj;
    B.w_int buf txn;
    B.w_string buf payload;
    w_cell buf cell
  | Commit { txn; ts } ->
    B.w_tag buf tag_commit;
    B.w_int buf txn;
    B.w_int buf ts
  | Abort { txn } ->
    B.w_tag buf tag_abort;
    B.w_int buf txn
  | Checkpoint { obj; upto; payload; cell } ->
    B.w_tag buf tag_checkpoint;
    B.w_string buf obj;
    B.w_int buf upto;
    B.w_string buf payload;
    w_cell buf cell
  | Prepare { txn; gtxn; ts } ->
    B.w_tag buf tag_prepare;
    B.w_int buf txn;
    B.w_int buf gtxn;
    B.w_int buf ts
  | Decide { gtxn; ts } ->
    B.w_tag buf tag_decide;
    B.w_int buf gtxn;
    B.w_int buf ts
  | Forget { gtxn } ->
    B.w_tag buf tag_forget;
    B.w_int buf gtxn

let decode_record s =
  let r = B.reader s in
  let record =
    match B.r_tag r with
    | 1 ->
      let obj = B.r_string r in
      let adt = B.r_string r in
      let cell = r_cell r in
      Object { obj; adt; cell }
    | 2 ->
      let obj = B.r_string r in
      let txn = B.r_int r in
      let payload = B.r_string r in
      let cell = r_cell r in
      Intention { obj; txn; payload; cell }
    | 3 ->
      let txn = B.r_int r in
      let ts = B.r_int r in
      Commit { txn; ts }
    | 4 -> Abort { txn = B.r_int r }
    | 5 ->
      let obj = B.r_string r in
      let upto = B.r_int r in
      let payload = B.r_string r in
      let cell = r_cell r in
      Checkpoint { obj; upto; payload; cell }
    | 6 ->
      let txn = B.r_int r in
      let gtxn = B.r_int r in
      let ts = B.r_int r in
      Prepare { txn; gtxn; ts }
    | 7 ->
      let gtxn = B.r_int r in
      let ts = B.r_int r in
      Decide { gtxn; ts }
    | 8 -> Forget { gtxn = B.r_int r }
    | t -> raise (B.Corrupt (Printf.sprintf "unknown record tag %d" t))
  in
  if not (B.eof r) then raise (B.Corrupt "trailing bytes in record");
  record

(* ---- framing: [len:u32][crc32(payload):u32][payload] ---- *)

let header_bytes = 8
let max_record_bytes = 1 lsl 28

(* One encoder frames every record: the payload is encoded once into
   [enc], then blitted behind the header into [out], which is reused
   from record to record.  A writer owns one, so an append builds no
   fresh buffer or string. *)
type encoder = { enc : Buffer.t; mutable out : Bytes.t }

let encoder () = { enc = Buffer.create 64; out = Bytes.create 64 }

(* Frame [record] into [e.out]; returns its framed length. *)
let encode e record =
  Buffer.clear e.enc;
  encode_record e.enc record;
  let len = Buffer.length e.enc in
  let n = header_bytes + len in
  if Bytes.length e.out < n then e.out <- Bytes.create (max n (2 * Bytes.length e.out));
  Buffer.blit e.enc 0 e.out header_bytes len;
  Bytes.set_int32_le e.out 0 (Int32.of_int len);
  Bytes.set_int32_le e.out 4 (Int32.of_int (B.crc32_bytes ~pos:header_bytes ~len e.out));
  n

let frame_with e buf record = Buffer.add_subbytes buf e.out 0 (encode e record)
let frame buf record = frame_with (encoder ()) buf record
let framed_size record = encode (encoder ()) record

type tail = Clean | Torn of int

let rec zeros_from s off = off = String.length s || (s.[off] = '\000' && zeros_from s (off + 1))

(* The one framing walk.  One framing or decode failure ends it:
   everything at or after the bad offset is a torn tail (the expected
   shape after kill -9 mid append), unless it is a run of at least
   [header_bytes] zeros reaching the end — the space an open writer
   reserved and has not written yet.  CRC catches a partially written
   payload whose length header made it to disk intact. *)
let frames s =
  let n = String.length s in
  let stop acc off =
    (List.rev acc, if n - off >= header_bytes && zeros_from s off then Clean else Torn off)
  in
  let rec go acc off =
    if off = n then (List.rev acc, Clean)
    else if n - off < header_bytes then stop acc off
    else
      let len = B.r_u32_at s off in
      let crc = B.r_u32_at s (off + 4) in
      if len < 0 || len > max_record_bytes || off + header_bytes + len > n then stop acc off
      else
        let payload = String.sub s (off + header_bytes) len in
        if B.crc32 payload <> crc then stop acc off
        else
          let next = off + header_bytes + len in
          match decode_record payload with
          | record -> go ((record, next) :: acc) next
          | exception B.Corrupt _ -> stop acc off
  in
  go [] 0

let parse s =
  let frames, tail = frames s in
  (List.map fst frames, tail)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let read path = parse (read_file path)

(* ------------------------------------------------------------------ *)
(* Writer with checkpoint-driven truncation and group commit           *)

let m_appends = Obs.Metrics.counter "wal.appends"
let m_bytes = Obs.Metrics.counter "wal.bytes"
let m_fsyncs = Obs.Metrics.counter "wal.fsyncs"
let m_checkpoints = Obs.Metrics.counter "wal.checkpoints"
let m_rewrites = Obs.Metrics.counter "wal.rewrites"

(* Ten buckets a decade, 10 us to 100 ms: the default ones are too coarse
   to resolve an fsync's p50 and p99. *)
let h_fsync =
  let bounds = Array.init 41 (fun k -> 10. ** ((float k /. 10.) -. 5.)) in
  Obs.Metrics.histogram ~bounds "wal.fsync_latency"

(* Whole rewrites (temp file, its fsync, rename, directory fsync):
   their fsyncs are not durability rounds, so they show here
   and not in [wal.fsync_latency] or [wal.fsyncs]. *)
let h_rewrite = Obs.Metrics.histogram "wal.rewrite_latency"

(* Records made durable per sync round: the group-commit batch size.
   Buckets are counts, not seconds. *)
let h_batch =
  Obs.Metrics.histogram
    ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
    "wal.fsync_batch"

type txn_info = {
  mutable t_ops : (int * string * string * int option) list;
      (* seq, obj, payload, cell; newest first *)
  mutable t_objs : string list; (* objects touched, no duplicates *)
}

(* The file is kept longer than its records, by whole chunks of a
   sparse extension: an append then writes inside the file's size, so
   the fsync that makes it durable flushes the record but journals no
   new size.  [reserve fd ~size upto] returns the file's new size, at
   least [header_bytes] past [upto], so the unwritten space a crash
   leaves behind is a zero run {!parse} can tell from a torn frame. *)
let reserve_chunk = 256 * 1024

let reserve fd ~size upto =
  if upto + header_bytes <= size then size
  else begin
    let size = (upto + header_bytes + reserve_chunk - 1) / reserve_chunk * reserve_chunk in
    Unix.ftruncate fd size;
    size
  end

type t = {
  path : string;
  fsync : bool;
  group_commit : bool;
  compact_threshold : int;
  mutex : Mutex.t;
  cond : Condition.t; (* durable_lsn advanced, or the sync leader changed *)
  mutable fd : Unix.file_descr;
  mutable closed : bool;
  mutable seq : int; (* appends ever = the appended-LSN watermark *)
  mutable durable_lsn : int; (* every record with LSN <= this is durable *)
  mutable syncing : bool; (* a sync leader is running (fd must not be swapped) *)
  mutable n_syncs : int; (* completed durability rounds (one fsync each) *)
  mutable sync_hook : (unit -> unit) option; (* test fault injection *)
  mutable file_records : int; (* records in the current file *)
  mutable file_bytes : int; (* = the write offset *)
  mutable reserved : int; (* the file's size, kept ahead of [file_bytes] *)
  mutable n_rewrites : int;
  encoder : encoder; (* frames every append, under [mutex] *)
  mutable n_live : int; (* records a rewrite would emit: the sizes below *)
  (* live-set bookkeeping: exactly the records a rewrite must retain *)
  objs : (string, string * int option) Hashtbl.t; (* obj -> (adt, cell) *)
  ckpts : (string, int * string * int option) Hashtbl.t; (* obj -> (upto, payload, cell) *)
  active : (int, txn_info) Hashtbl.t; (* txns with ops, not yet completed *)
  committed : (int, int * int * txn_info) Hashtbl.t; (* txn -> (seq, ts, info) *)
  prepared : (int, int * int * int) Hashtbl.t;
      (* in-doubt 2PC participants: txn -> (seq, gtxn, prepared ts);
         retained until the transaction's Commit or Abort record *)
  decisions : (int, int * int) Hashtbl.t;
      (* coordinator commit decisions: gtxn -> (seq, decided ts);
         retained until the Forget record (presumed abort: an absent
         decision means abort, so only commits ever need retaining) *)
}

let create ?(fsync = true) ?(group_commit = true) ?(compact_threshold = 8192) path =
  let fd = Unix.openfile path Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let reserved = reserve fd ~size:0 0 in
  {
    path;
    fsync;
    group_commit;
    compact_threshold;
    mutex = Mutex.create ();
    cond = Condition.create ();
    fd;
    closed = false;
    seq = 0;
    durable_lsn = 0;
    syncing = false;
    n_syncs = 0;
    sync_hook = None;
    file_records = 0;
    file_bytes = 0;
    reserved;
    n_rewrites = 0;
    encoder = encoder ();
    n_live = 0;
    objs = Hashtbl.create 8;
    ckpts = Hashtbl.create 8;
    active = Hashtbl.create 32;
    committed = Hashtbl.create 32;
    prepared = Hashtbl.create 8;
    decisions = Hashtbl.create 8;
  }

let path t = t.path

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let write_all fd b n =
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) Unix.[ O_RDONLY; O_CLOEXEC ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* The live count moves with every table below, so the rewrite
   trigger reads it in O(1).  A table entry weighs one record, a
   transaction its intentions (plus its Commit once committed). *)
let add_live t tbl key v =
  if not (Hashtbl.mem tbl key) then t.n_live <- t.n_live + 1;
  Hashtbl.replace tbl key v

let remove_live t tbl key =
  if Hashtbl.mem tbl key then begin
    t.n_live <- t.n_live - 1;
    Hashtbl.remove tbl key
  end

let remove_active t txn =
  match Hashtbl.find_opt t.active txn with
  | None -> None
  | Some info ->
    Hashtbl.remove t.active txn;
    t.n_live <- t.n_live - List.length info.t_ops;
    Some info

let find_active t txn =
  match Hashtbl.find_opt t.active txn with
  | Some info -> info
  | None ->
    let info = { t_ops = []; t_objs = [] } in
    Hashtbl.replace t.active txn info;
    info

(* A committed transaction's records become redundant once every object
   it touched has checkpointed at or past its timestamp: its intentions
   are folded into each object's durable version (Theorem 24 makes the
   fold permanent), so recovery no longer needs to redo them. *)
let covered t ts info =
  List.for_all
    (fun obj ->
      match Hashtbl.find_opt t.ckpts obj with
      | Some (upto, _, _) -> ts <= upto
      | None -> false)
    info.t_objs

let drop_covered t =
  let dead =
    Hashtbl.fold
      (fun txn (_, ts, info) acc -> if covered t ts info then (txn, info) :: acc else acc)
      t.committed []
  in
  List.iter
    (fun (txn, info) ->
      Hashtbl.remove t.committed txn;
      t.n_live <- t.n_live - List.length info.t_ops - 1)
    dead

(* Track the live set under an appended record. *)
let account t seq = function
  | Object { obj; adt; cell } -> add_live t t.objs obj (adt, cell)
  | Intention { obj; txn; payload; cell } ->
    let info = find_active t txn in
    info.t_ops <- (seq, obj, payload, cell) :: info.t_ops;
    t.n_live <- t.n_live + 1;
    if not (List.mem obj info.t_objs) then info.t_objs <- obj :: info.t_objs
  | Commit { txn; ts } -> (
    remove_live t t.prepared txn;
    match remove_active t txn with
    | None -> () (* read-only or no-op transaction: nothing to redo *)
    | Some info ->
      if not (covered t ts info) then begin
        Hashtbl.replace t.committed txn (seq, ts, info);
        t.n_live <- t.n_live + List.length info.t_ops + 1
      end)
  | Abort { txn } ->
    (* Recovery discards uncommitted intentions anyway, so an aborted
       transaction's records need not be retained at all. *)
    remove_live t t.prepared txn;
    ignore (remove_active t txn : txn_info option)
  | Prepare { txn; gtxn; ts } ->
    (* An in-doubt vote must survive rewrites until the decision lands:
       recovery keys its decision-log lookup on it. *)
    add_live t t.prepared txn (seq, gtxn, ts)
  | Decide { gtxn; ts } -> add_live t t.decisions gtxn (seq, ts)
  | Forget { gtxn } ->
    (* Written only after every participant durably committed, so no
       recovery will ever ask about this decision again. *)
    remove_live t t.decisions gtxn
  | Checkpoint { obj; upto; payload; cell } ->
    Obs.Metrics.incr m_checkpoints;
    (match Hashtbl.find_opt t.ckpts obj with
    | Some (prev, _, _) when prev > upto -> () (* never regress a checkpoint *)
    | Some _ | None -> add_live t t.ckpts obj (upto, payload, cell));
    drop_covered t

(* Rewrite the file down to the live set: per-object declarations and
   latest checkpoints first, then the retained transaction records in
   their original append order.  Atomic via write-to-temp + rename, so a
   crash during the rewrite leaves the previous log intact.  Must not
   run while a sync leader is fsyncing outside the mutex — the leader
   holds the old fd. *)
let rewrite_locked t =
  let t0 = Obs.Clock.now_ns () in
  let buf = Buffer.create 4096 in
  let count = ref 0 in
  let emit r =
    frame_with t.encoder buf r;
    incr count
  in
  Hashtbl.fold (fun obj (adt, cell) acc -> (obj, adt, cell) :: acc) t.objs []
  |> List.sort compare
  |> List.iter (fun (obj, adt, cell) -> emit (Object { obj; adt; cell }));
  Hashtbl.fold (fun obj (upto, payload, cell) acc -> (obj, upto, payload, cell) :: acc) t.ckpts []
  |> List.sort compare
  |> List.iter (fun (obj, upto, payload, cell) -> emit (Checkpoint { obj; upto; payload; cell }));
  let tail = ref [] in
  let add seq r = tail := (seq, r) :: !tail in
  Hashtbl.iter
    (fun txn info ->
      List.iter
        (fun (seq, obj, payload, cell) -> add seq (Intention { obj; txn; payload; cell }))
        info.t_ops)
    t.active;
  Hashtbl.iter
    (fun txn (seq, ts, info) ->
      List.iter
        (fun (s, obj, payload, cell) -> add s (Intention { obj; txn; payload; cell }))
        info.t_ops;
      add seq (Commit { txn; ts }))
    t.committed;
  Hashtbl.iter (fun txn (seq, gtxn, ts) -> add seq (Prepare { txn; gtxn; ts })) t.prepared;
  Hashtbl.iter (fun gtxn (seq, ts) -> add seq (Decide { gtxn; ts })) t.decisions;
  List.sort (fun (a, _) (b, _) -> compare a b) !tail
  |> List.iter (fun (_, r) -> emit r);
  let tmp = t.path ^ ".rewrite" in
  let fd = Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  (* The successor is reserved before its fsync, and stays open: its
     offset is already at the end of its records. *)
  let reserved =
    try
      write_all fd (Buffer.to_bytes buf) (Buffer.length buf);
      let reserved = reserve fd ~size:0 (Buffer.length buf) in
      if t.fsync then Unix.fsync fd;
      Unix.rename tmp t.path;
      reserved
    with e ->
      Unix.close fd;
      raise e
  in
  if t.fsync then fsync_dir t.path;
  Unix.close t.fd;
  t.fd <- fd;
  t.reserved <- reserved;
  (* The whole live set was just written (and, when durability is on,
     fsynced through the rename): every appended record is durable. *)
  t.durable_lsn <- t.seq;
  t.file_records <- !count;
  t.file_bytes <- Buffer.length buf;
  t.n_rewrites <- t.n_rewrites + 1;
  Obs.Metrics.incr m_rewrites;
  Obs.Metrics.observe h_rewrite (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0))

(* Amortised: a rewrite costs O(live) plus two fsyncs, so it waits for
   [max compact_threshold live] dead records.  The floor spreads the
   fixed cost over many appends; the live term keeps the total rewrite
   work linear in appends when the live set grows (a pinned snapshot,
   many in-doubt prepares), and bounds the file at twice the live set
   plus the floor. *)
let maybe_rewrite_locked t =
  if (not t.syncing) && t.file_records - t.n_live >= max t.compact_threshold t.n_live then
    rewrite_locked t

let append_lsn t record =
  with_lock t (fun () ->
      if t.closed then invalid_arg "Wal.Log.append: log closed";
      let n = encode t.encoder record in
      t.reserved <- reserve t.fd ~size:t.reserved (t.file_bytes + n);
      write_all t.fd t.encoder.out n;
      t.seq <- t.seq + 1;
      t.file_records <- t.file_records + 1;
      t.file_bytes <- t.file_bytes + n;
      Obs.Metrics.incr m_appends;
      Obs.Metrics.add m_bytes n;
      account t t.seq record;
      let lsn = t.seq in
      maybe_rewrite_locked t;
      lsn)

let append t record = ignore (append_lsn t record : int)

(* ---- the durability point ----

   [sync_upto t lsn] returns only once every record with LSN <= [lsn]
   is durable.  The first committer to arrive becomes the {e leader}:
   it snapshots the appended watermark, releases the mutex (in group
   commit mode) and runs one fsync covering every record appended so
   far; committers arriving meanwhile wait on [t.cond], so one fsync
   retires a whole batch.  In [group_commit = false] mode the fsync
   runs while holding the mutex — appends (and hence commit-timestamp
   draws) serialize behind it, which is the pre-group-commit baseline
   the bench compares against.

   A failing fsync wakes all waiters without advancing [durable_lsn];
   each waiter re-enters leader election, so a transient fault retries
   while a persistent one surfaces to every committer in the batch. *)

let run_sync_barrier t =
  (match t.sync_hook with Some f -> f () | None -> ());
  if t.fsync then begin
    let t0 = Obs.Clock.now_ns () in
    Unix.fsync t.fd;
    let dur_ns = Obs.Clock.now_ns () - t0 in
    Obs.Metrics.observe h_fsync (Obs.Clock.ns_to_s dur_ns);
    Obs.Metrics.incr m_fsyncs;
    (* Device-level flight record: one per physical fsync (the leader's),
       as opposed to the per-transaction sync-wait window. *)
    if Obs.Span.enabled () then Obs.Span.fsync ~dur_ns
  end

let rec sync_wait t lsn =
  if t.closed then invalid_arg "Wal.Log.sync_upto: log closed";
  if t.durable_lsn < lsn then
    if t.syncing then begin
      Condition.wait t.cond t.mutex;
      sync_wait t lsn
    end
    else begin
      (* Become the leader for everything appended so far. *)
      t.syncing <- true;
      let target = t.seq in
      let prev = t.durable_lsn in
      let result =
        if t.group_commit then begin
          (* fsync outside the mutex: later committers keep appending
             (the next batch forms during this fsync).  [t.syncing]
             pins [t.fd]: no rewrite may swap it underneath us. *)
          Mutex.unlock t.mutex;
          let r = try Ok (run_sync_barrier t) with e -> Error e in
          Mutex.lock t.mutex;
          r
        end
        else (try Ok (run_sync_barrier t) with e -> Error e)
      in
      t.syncing <- false;
      (match result with
      | Ok () ->
        t.durable_lsn <- max t.durable_lsn target;
        t.n_syncs <- t.n_syncs + 1;
        Obs.Metrics.observe h_batch (float_of_int (target - prev));
        (* A rewrite deferred because we were syncing can run now. *)
        maybe_rewrite_locked t
      | Error _ -> ());
      Condition.broadcast t.cond;
      match result with
      | Ok () -> if t.durable_lsn < lsn then sync_wait t lsn
      | Error e -> raise e
    end

let sync_upto t lsn = with_lock t (fun () -> sync_wait t lsn)

let set_sync_hook t hook = with_lock t (fun () -> t.sync_hook <- Some hook)
let clear_sync_hook t = with_lock t (fun () -> t.sync_hook <- None)

let close t =
  with_lock t (fun () ->
      (* Let any in-flight leader finish with the fd it holds. *)
      while t.syncing do
        Condition.wait t.cond t.mutex
      done;
      if not t.closed then begin
        (* Give back the reserved space.  A crash before the size
           change is durable leaves it as a zero run, which parses as a
           clean end of log, so it needs no fsync of its own. *)
        Unix.ftruncate t.fd t.file_bytes;
        if t.durable_lsn < t.seq && t.fsync then Unix.fsync t.fd;
        t.durable_lsn <- t.seq;
        Unix.close t.fd;
        t.closed <- true
      end)

let file_records t = with_lock t (fun () -> t.file_records)
let live t = with_lock t (fun () -> t.n_live)
let rewrites t = with_lock t (fun () -> t.n_rewrites)
let appended_lsn t = with_lock t (fun () -> t.seq)
let durable_lsn t = with_lock t (fun () -> t.durable_lsn)
let fsyncs t = with_lock t (fun () -> t.n_syncs)

let checkpoint_upto t obj =
  with_lock t (fun () ->
      Option.map (fun (upto, _, _) -> upto) (Hashtbl.find_opt t.ckpts obj))

(* ------------------------------------------------------------------ *)
(* Live introspection *)

let stats_json t () =
  with_lock t (fun () ->
      Obs.Json.Obj
        [
          ("path", Obs.Json.String t.path);
          ("file_records", Obs.Json.Int t.file_records);
          ("file_bytes", Obs.Json.Int t.file_bytes);
          ("live_records", Obs.Json.Int t.n_live);
          ("objects", Obs.Json.Int (Hashtbl.length t.objs));
          ("checkpoints", Obs.Json.Int (Hashtbl.length t.ckpts));
          ("active_txns", Obs.Json.Int (Hashtbl.length t.active));
          ("committed_retained", Obs.Json.Int (Hashtbl.length t.committed));
          ("prepared", Obs.Json.Int (Hashtbl.length t.prepared));
          ("decisions_retained", Obs.Json.Int (Hashtbl.length t.decisions));
          ("appended_lsn", Obs.Json.Int t.seq);
          ("durable_lsn", Obs.Json.Int t.durable_lsn);
          ("fsyncs", Obs.Json.Int t.n_syncs);
          ("rewrites", Obs.Json.Int t.n_rewrites);
          ("group_commit", Obs.Json.Bool t.group_commit);
          ("dirty", Obs.Json.Bool (t.durable_lsn < t.seq));
        ])

let register_introspection t =
  let name = Filename.basename t.path in
  Obs.Registry.register_snapshot ~channel:"wal" ~name (stats_json t);
  let labels = [ ("log", name) ] in
  Obs.Gauge.callback ~labels "wal_file_bytes" (fun () ->
      float_of_int (with_lock t (fun () -> t.file_bytes)));
  Obs.Gauge.callback ~labels "wal_live_records" (fun () ->
      float_of_int (with_lock t (fun () -> t.n_live)));
  (* Committed transactions whose records the compactor must still
     retain because some touched object has not checkpointed past their
     timestamp — the log's checkpoint lag. *)
  Obs.Gauge.callback ~labels "wal_checkpoint_lag" (fun () ->
      float_of_int (with_lock t (fun () -> Hashtbl.length t.committed)));
  (* Appended-but-not-yet-durable records: the durability analogue of
     Theorem 24's compaction debt.  Under group commit it is bounded by
     one batch; sustained growth means fsync is losing the race. *)
  Obs.Gauge.callback ~labels "wal_durable_lag" (fun () ->
      float_of_int (with_lock t (fun () -> t.seq - t.durable_lsn)))
