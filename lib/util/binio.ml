exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit src =
  let limit = match limit with Some l -> l | None -> String.length src in
  if pos < 0 || limit > String.length src || pos > limit then
    invalid_arg "Binio.reader: bounds";
  { src; pos; limit }

let pos r = r.pos
let eof r = r.pos >= r.limit
let remaining r = r.limit - r.pos

(* Ints are written in a zig-zag varint encoding: small magnitudes
   (op arguments, balances, timestamps) take one byte, and the format is
   independent of the host's int width. *)
let w_int buf n =
  let z = if n >= 0 then n lsl 1 else lnot (n lsl 1) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr z)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go z

let r_byte r =
  if eof r then corrupt "varint: truncated at %d" r.pos
  else begin
    let c = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c
  end

let r_int r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint: overlong at %d" r.pos
    else
      let b = r_byte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  if z land 1 = 0 then z lsr 1 else lnot (z lsr 1)

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let r_string r =
  let n = r_int r in
  if n < 0 || n > remaining r then corrupt "string: bad length %d at %d" n r.pos
  else begin
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s
  end

let w_list w buf l =
  w_int buf (List.length l);
  List.iter (w buf) l

let r_list rd r =
  let n = r_int r in
  if n < 0 || n > remaining r then corrupt "list: bad length %d at %d" n r.pos
  else List.init n (fun _ -> rd r)

let w_tag buf t =
  if t < 0 || t > 0xff then invalid_arg "Binio.w_tag: out of range";
  Buffer.add_char buf (Char.chr t)

let r_tag = r_byte

(* Fixed-width little-endian 32-bit words for the log framing (lengths
   and checksums must be parseable without trusting any varint). *)
let w_u32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let r_u32_at s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* CRC-32 (IEEE 802.3, reflected), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* Reading never mutates, so viewing the string as bytes is safe. *)
let crc32 ?pos ?len s = crc32_bytes ?pos ?len (Bytes.unsafe_of_string s)
