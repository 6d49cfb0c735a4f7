(** Compact binary wire format for stamps, names and version vectors.

    Names serialize as their canonical trie with a prefix-free code
    (1 bit per interior node, 2 per leaf), so the encoding is
    self-delimiting and one-to-one with antichains: decode of encode is
    the identity and re-encoding a decoded value is byte-identical.
    A stamp is its two names back to back.  Version vectors serialize as
    varint (id, counter) pairs for the size comparison of experiment
    E7.

    The codec is generic in the name backend: {!Make} builds it for any
    registered {!Vstamp_core.Backend.S} and reads and writes each name
    through the backend's trie view ({!Vstamp_core.Backend.S.to_trie},
    {!Vstamp_core.Backend.S.of_trie}), so no name passes through a member
    list unless its backend keeps one.  The trie is canonical for the
    {e antichain}, not the in-memory shape, so two backends holding the
    same name produce byte-identical output, identical to a reference
    codec that rebuilds every trie from the member list.  The top-level
    functions are {!Make} applied to the default tree backend.

    Decoders reject a name with a member longer than {!max_depth} bits
    as [Malformed] as soon as they read the interior node past the cap,
    so hostile input cannot drive the recursion deeper. *)

type error =
  | Truncated  (** Input ended mid-value. *)
  | Malformed of string  (** Structurally invalid (bad trie or broken I1). *)

val pp_error : Format.formatter -> error -> unit

val max_depth : int
(** [2^16]: the longest member a decoded name may have, in bits.  Far
    above real names, whose deepest measured member is 65 bits. *)

(** Output signature of {!Make}. *)
module type CODEC = sig
  type name

  type stamp

  (** {1 Names} *)

  val name_to_string : name -> string

  val name_of_string : string -> (name, error) result

  val name_bits : name -> int
  (** Exact encoded size in bits (before byte padding). *)

  (** {1 Stamps} *)

  val stamp_to_string : stamp -> string

  val stamp_of_string : ?validate:bool -> string -> (stamp, error) result
  (** [validate] (default [true]) rejects stamps violating invariant I1. *)

  val stamp_bits : stamp -> int
end

module Make (B : Vstamp_core.Backend.S) :
  CODEC with type name = B.Name.t and type stamp = B.Stamp.t
(** The wire codec over any name backend. *)

include
  CODEC
    with type name = Vstamp_core.Stamp.name
     and type stamp = Vstamp_core.Stamp.t
(** The default-backend codec. *)

(** {1 Version vectors} *)

val vv_to_string : Vstamp_vv.Version_vector.t -> string

val vv_of_string : string -> (Vstamp_vv.Version_vector.t, error) result

val vv_bits : Vstamp_vv.Version_vector.t -> int
