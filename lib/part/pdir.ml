(* Key-partitioned Directory: the canonical positive case.  Every
   operation addresses exactly one key, dependency_hybrid already
   relates same-key operations only, so the cell restriction drops
   nothing and is trivially still a dependency relation — independent
   keys were never allowed to wait on each other, and here they no
   longer share a lock machine (or a mutex) either. *)

module A = Adt.Directory
module C = Cells.Make (Adt.Directory)
module P = Spec.Partition.Make (Adt.Directory)
module O = C.O

type t = { cells : C.t; n : int }

let create ?name ?record ?trace ?wal ?(conflict = A.conflict_hybrid) ~cells () =
  { cells = C.create ?name ?record ?trace ?wal ~cells ~conflict (); n = cells }

(* Fibonacci hashing spreads consecutive keys across cells; reduced mod
   n so any positive cell count works. *)
let cell_of_key t key = (key * 0x2545f49 land max_int) mod t.n

let route t i =
  match A.cell_of_inv i with
  | Some key -> Some (cell_of_key t key)
  | None -> None

let try_invoke t txn i = C.try_invoke t.cells txn ~cell:(route t i) i
let invoke t txn i = C.invoke t.cells txn ~cell:(route t i) i

(* The merged committed state: each cell holds the present keys hashed
   to it, so the logical directory is the sorted union.  Directory is
   deterministic — every cell's committed-state set is a singleton. *)
let committed_keys t =
  C.committed_states_by_cell t.cells
  |> List.concat_map (fun (_, states) -> match states with s :: _ -> s | [] -> [])
  |> List.sort_uniq compare

let cells t = t.cells
let name t = C.name t.cells
let stats t = C.stats t.cells
let replay_check ?online t = C.replay_check ?online t.cells
let register_introspection t = C.register_introspection t.cells

(* The offline soundness certificate Pdir relies on. *)
let is_sound ~depth = P.is_sound ~depth
