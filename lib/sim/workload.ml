module type ADT = sig
  include Spec.Adt_sig.BOUNDED

  val codec : (inv, res, state) Wal.Codec.t
end

type ('i, 'r) target =
  | Whole :
      (module ADT with type inv = 'i and type res = 'r) * ('i * 'r -> 'i * 'r -> bool)
      -> ('i, 'r) target
  | Cells : int -> (Adt.Directory.inv, Adt.Directory.res) target

type 'i script = {
  prefill : workers:int -> txns:int -> 'i list;
  txn : seed:int -> workers:int -> worker:int -> int -> 'i list;
}

type row =
  | Row : {
      label : string;
      target : ('i, 'r) target;
      conflict_prob : float;
      script : 'i script;
    }
      -> row

type t = { id : string; title : string; ops : int; params : string; rows : row list }

(* A whole-object row, its conflict probability taken under [weights]. *)
let whole (type i r) (module A : ADT with type inv = i and type res = r) ~weights script
    (label, conflict) =
  let module P = Conflict_profile.Make (A) in
  Row
    {
      label;
      target = Whole ((module A), conflict);
      conflict_prob = P.op_conflict_probability ~weights conflict;
      script;
    }

(* Operation [j] of [worker]'s transaction [k] draws [1 + pseudo mod m]. *)
let value ~seed worker k j m = 1 + (Driver.pseudo ~seed worker k j mod m)

let no_prefill ~workers:_ ~txns:_ = []

(* The producer/consumer load: the first half of the workers consume,
   the rest produce [1 + pseudo mod 2].  The prefill stocks two items
   per consume the run makes, so no consume finds the container empty. *)
let producer_consumer ~produce ~consume =
  let ops = 3 in
  {
    prefill =
      (fun ~workers ~txns ->
        List.init (2 * (workers / 2) * txns * ops) (fun k -> produce (1 + (k mod 2))));
    txn =
      (fun ~seed ~workers ~worker k ->
        List.init ops (fun j ->
            if worker < workers / 2 then consume else produce (value ~seed worker k j 2)));
  }

let queue_pc =
  producer_consumer ~produce:(fun v -> Adt.Fifo_queue.Enq v) ~consume:Adt.Fifo_queue.Deq

let queue = whole (module Adt.Fifo_queue)

let queue_relations =
  [
    ("hybrid (fig 4-2)", Adt.Fifo_queue.conflict_hybrid);
    ("fig 4-3 / commutativity", Adt.Fifo_queue.conflict_commutativity);
    ("2PL read/write", Adt.Fifo_queue.conflict_rw);
  ]

let queue_enq =
  let enq_only = function Adt.Fifo_queue.Enq _, _ -> 1. | Adt.Fifo_queue.Deq, _ -> 0. in
  let script =
    {
      prefill = no_prefill;
      txn =
        (fun ~seed ~workers:_ ~worker k ->
          List.init 4 (fun j -> Adt.Fifo_queue.Enq (value ~seed worker k j 2)));
    }
  in
  {
    id = "EXP-QUEUE-ENQ";
    title = "concurrent enqueuers";
    ops = 4;
    params = "";
    rows = List.map (queue ~weights:enq_only script) queue_relations;
  }

let all_ops _ = 1.

let queue_mixed =
  {
    id = "EXP-QUEUE-MIXED";
    title = "producers vs consumers";
    ops = 3;
    params = "";
    rows = List.map (queue ~weights:all_ops queue_pc) queue_relations;
  }

(* In the exact integer model each [Post 1] doubles the balance, so the
   Posts are bounded — 9 at any scale, run as 2-operation transactions
   so their serialization footprint under commutativity-based locking
   shows — and the balance stays far from native-int overflow, which
   would wrap it negative and break the monotonicity Figure 4-5's
   conflicts rely on (see DESIGN.md). *)
let account_script =
  let open Adt.Account in
  {
    prefill = (fun ~workers:_ ~txns:_ -> [ Credit 1_000_000 ]);
    txn =
      (fun ~seed ~workers:_ ~worker k ->
        if k < 25 && k mod 12 = 3 * worker then [ Post 1; Credit 1 ]
        else if (worker + k) mod 2 = 0 then
          List.init 3 (fun j -> Credit (value ~seed worker k j 9))
        else List.init 3 (fun j -> Debit (value ~seed worker k j 9)));
  }

let account =
  let open Adt.Account in
  (* Roughly the workload mix: credits and debits dominate, posts are
     occasional, overdrafts rare. *)
  let weights = function
    | Credit _, _ -> 4.
    | Post _, _ -> 1.
    | Debit _, Ok -> 4.
    | Debit _, Overdraft -> 0.1
  in
  {
    id = "EXP-ACCOUNT";
    title = "credit/post/debit mix";
    ops = 3;
    params = "";
    rows =
      List.map
        (whole (module Adt.Account) ~weights account_script)
        [
          ("hybrid (fig 4-5)", conflict_hybrid);
          ("commutativity (fig 7-1)", conflict_commutativity);
          ("2PL read/write", conflict_rw);
        ];
  }

let semiqueue =
  let semi_pc =
    producer_consumer ~produce:(fun v -> Adt.Semiqueue.Ins v) ~consume:Adt.Semiqueue.Rem
  in
  {
    id = "EXP-SEMIQ";
    title = "SemiQueue vs FIFO Queue";
    ops = 3;
    params = "";
    rows =
      whole (module Adt.Semiqueue) ~weights:all_ops semi_pc
        ("SemiQueue hybrid (fig 4-4)", Adt.Semiqueue.conflict_hybrid)
      :: List.map (queue ~weights:all_ops queue_pc)
           [
             ("Queue hybrid (fig 4-2)", Adt.Fifo_queue.conflict_hybrid);
             ("Queue fig 4-3", Adt.Fifo_queue.conflict_fig_4_3);
           ];
  }

(* ~40% Insert / 30% Remove / 30% Member over a Zipf-drawn key.  The
   offset in the mix hash decorrelates it from the key draw. *)
let directory_mix ~seed keys worker k j =
  let key = Conflict_profile.Keys.draw keys ~seed ~domain:worker ~seq:k ~k:j in
  match Driver.pseudo ~seed worker k (j + 11) mod 10 with
  | 0 | 1 | 2 | 3 -> Adt.Directory.Insert key
  | 4 | 5 | 6 -> Adt.Directory.Remove key
  | _ -> Adt.Directory.Member key

let directory ?(key_skew = 0.) ?(keys = 64) ?(cells = 8) () =
  let kt = Conflict_profile.Keys.make ~skew:key_skew ~n:keys in
  let module P = Conflict_profile.Make (Adt.Directory) in
  (* The cell-blind machine fires on label pairs regardless of key; the
     key-aware rows additionally need the two draws to collide. *)
  let blind =
    P.op_conflict_probability ~weights:P.uniform Adt.Directory.conflict_whole_object
  in
  let keyed = Conflict_profile.Keys.collision kt *. blind in
  let script =
    {
      prefill = no_prefill;
      txn =
        (fun ~seed ~workers:_ ~worker k -> List.init 4 (directory_mix ~seed kt worker k));
    }
  in
  let row label target conflict_prob = Row { label; target; conflict_prob; script } in
  let whole_object conflict = Whole ((module Adt.Directory), conflict) in
  {
    id = "EXP-DIRECTORY";
    title = "locking granularity: cell-blind vs key-aware vs cell-locked Directory";
    ops = 4;
    params = Printf.sprintf "%d keys, skew %.2f, %d cells" keys key_skew cells;
    rows =
      [
        row "whole-object (cell-blind)"
          (whole_object Adt.Directory.conflict_whole_object)
          blind;
        row "whole-object (key-aware)" (whole_object Adt.Directory.conflict_hybrid) keyed;
        row (Printf.sprintf "cell-locked (%d cells)" cells) (Cells cells) keyed;
      ];
  }

let paper =
  [
    ("queue", queue_enq);
    ("queue-mixed", queue_mixed);
    ("account", account);
    ("semiqueue", semiqueue);
  ]

let drive (scale : Driver.scale) ~seed ~mgr invoke script =
  let workers = scale.domains and txns = scale.txns in
  (match script.prefill ~workers ~txns with
  | [] -> ()
  | prefill -> Runtime.Manager.run mgr (fun txn -> List.iter (invoke txn) prefill));
  Driver.run scale ~mgr (fun ~domain ~seq txn ->
      List.iter
        (fun i ->
          invoke txn i;
          Driver.think scale.think_us)
        (script.txn ~seed ~workers ~worker:domain seq))
