(** Binary (de)serialization helpers for the durability layer.

    Writers append to a {!Buffer.t}; readers consume a string through a
    mutable cursor.  Decoders raise {!Corrupt} on malformed input — the
    WAL reader catches it and treats the record as damaged, so decoders
    must validate every length they read before allocating. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

type reader

val reader : ?pos:int -> ?limit:int -> string -> reader
val pos : reader -> int
val eof : reader -> bool
val remaining : reader -> int

val w_int : Buffer.t -> int -> unit
(** Zig-zag varint: one byte for small magnitudes, sign-safe. *)

val r_int : reader -> int

val w_string : Buffer.t -> string -> unit
val r_string : reader -> string

val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val r_list : (reader -> 'a) -> reader -> 'a list

val w_tag : Buffer.t -> int -> unit
(** One-byte constructor tag (0..255). *)

val r_tag : reader -> int

val w_u32 : Buffer.t -> int -> unit
(** Fixed-width little-endian 32-bit word (log framing). *)

val r_u32_at : string -> int -> int

val crc32 : ?pos:int -> ?len:int -> string -> int
(** CRC-32 (IEEE), as used by the log's record framing. *)

val crc32_bytes : ?pos:int -> ?len:int -> bytes -> int
(** {!crc32} over a byte sequence, for a writer that frames in place. *)
