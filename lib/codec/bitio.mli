(** Bit-level readers and writers for the wire codecs.

    Bits are packed most-significant-first within bytes; the final byte of
    a writer's output is zero-padded.  Readers raise {!Truncated} when
    asked for bits past the end — decoders translate that into a typed
    error. *)

exception Truncated

module Writer : sig
  type t

  val create : unit -> t

  val bit : t -> bool -> unit

  val bits : t -> value:int -> width:int -> unit
  (** Write [value]'s low [width] bits, most significant first.
      @raise Invalid_argument on negative values or width outside
      [0, 62]. *)

  val varint : t -> int -> unit
  (** Unsigned variable-length integer in 5-bit groups (continuation bit
      plus 4 payload bits): values below 16 cost 5 bits.
      @raise Invalid_argument on negatives. *)

  val bit_length : t -> int
  (** Exact number of bits written so far (before padding). *)

  val contents : t -> string
  (** The packed bytes, last byte zero-padded. *)
end

module Reader : sig
  type t

  val of_string : string -> t

  val remaining_bits : t -> int

  val bit : t -> bool
  (** @raise Truncated at end of input. *)

  val bits : t -> width:int -> int
  (** @raise Truncated at end of input. *)

  val varint : t -> int
  (** @raise Truncated at end of input or on an overlong encoding. *)
end

val round_trip_bits : int -> int
(** Encoded size in bits of one varint — for size accounting. *)
