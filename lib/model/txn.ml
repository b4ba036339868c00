(* The default label is formatted only when asked for: runtime handles
   make a model transaction per invocation and rarely print it. *)
type t = { id : int; label : string option }

let make ?label id = { id; label }
let id t = t.id
let label t = match t.label with Some l -> l | None -> "T" ^ string_of_int t.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let pp ppf t = Format.pp_print_string ppf (label t)
