(** Classic version vectors (Parker et al. 1983) — the paper's baseline.

    A version vector maps replica identifiers to update counters; missing
    entries count as zero.  Replicas detect mutual inconsistency by
    pointwise comparison and synchronize by pointwise maximum.  The
    mechanism {e requires} every replica to hold a unique identifier
    obtained from some global source — the limitation version stamps
    remove ({!Id_source} models the ways that acquisition can fail). *)

type id = int
(** Replica identifier.  Uniqueness is the caller's obligation. *)

type t
(** A version vector.  Zero entries are never stored, so {!equal} is
    structural. *)

val zero : t
(** The empty vector (all counters zero). *)

val get : t -> id -> int

val set : t -> id -> int -> t
(** @raise Invalid_argument on a negative counter. *)

val increment : t -> id -> t
(** Bump one replica's counter — an update at that replica. *)

val of_list : (id * int) list -> t

val to_list : t -> (id * int) list
(** Non-zero entries, sorted by id. *)

val entry_count : t -> int
(** Number of non-zero entries — vector width. *)

val total_events : t -> int
(** Sum of all counters. *)

val bits_for : int -> int
(** Minimal binary width of a non-negative integer (at least 1). *)

val size_bits : t -> int
(** Wire-size estimate: minimal binary width of each stored id and
    counter.  Comparable with {!Vstamp_core.Stamp.size_bits}. *)

val equal : t -> t -> bool

val leq : t -> t -> bool
(** Pointwise comparison — causal domination. *)

val relation : t -> t -> Vstamp_core.Relation.t
(** Equivalent / obsolete / inconsistent, as in the paper's Figure 1. *)

val merge : t -> t -> t
(** Pointwise maximum — synchronization. *)

val dominated_by_merge : t -> t list -> bool
(** Set-quantified domination, mirroring
    {!Vstamp_core.Stamp.dominated_by_join}. *)

val pp : Format.formatter -> t -> unit
(** Renders as [<id:count,...>]. *)

val to_string : t -> string

(** A replica paired with its vector — the Figure 1 usage pattern. *)
module Replica : sig
  type vv := t

  type t

  val create : id:id -> t
  (** A replica with a fresh, externally allocated identity. *)

  val id : t -> id

  val vector : t -> vv

  val update : t -> t
  (** Local update: bump own counter. *)

  val sync : t -> t -> t * t
  (** Both replicas leave with the merged vector. *)

  val relation : t -> t -> Vstamp_core.Relation.t

  val pp : Format.formatter -> t -> unit
end
