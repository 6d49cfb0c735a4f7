(** Interval Tree Clocks (Almeida, Baquero & Fonte, OPODIS 2008).

    The same authors' successor to version stamps, included here as the
    paper's "future work" line made concrete: where a version stamp's id
    is an antichain of binary strings and its update component a second
    antichain, an ITC stamp splits the real interval [0,1) into an {e id
    tree} and counts events per region in an {e event tree}.  The fork /
    event (update) / join protocol and the frontier-only ordering are the
    same; the payoff is counters: repeated updates cost increments, not
    structure, so ITC stamps stay smaller under update-heavy workloads.
    Experiment E8 compares the two quantitatively. *)

(** Id trees: a binary partition of the identifier space.  [One] owns the
    whole subinterval, [Zero] none of it. *)
module Id : sig
  type t = Zero | One | Branch of t * t

  val norm : t -> t
  (** Collapse [(0,0)] and [(1,1)]. *)

  val well_formed : t -> bool
  (** Normalized everywhere. *)

  val split : t -> t * t
  (** Autonomous division of ownership — the id part of fork. *)

  exception Overlap
  (** Raised by {!sum} on overlapping ids (impossible in correct use:
      live ids are pairwise disjoint). *)

  val sum : t -> t -> t
  (** Union of disjoint ids — the id part of join. *)

  val disjoint : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

(** Event trees: per-region update counters. *)
module Event : sig
  type t = Leaf of int | Node of int * t * t

  val min_value : t -> int

  val max_value : t -> int

  val norm : t -> t
  (** Canonical form: equal sibling leaves collapse, common minima sink
      into the root. *)

  val well_formed : t -> bool
  (** Normalized and non-negative. *)

  val leq : t -> t -> bool
  (** Region-wise comparison (expects normalized trees, which every
      operation here maintains). *)

  val join : t -> t -> t
  (** Region-wise maximum, normalized. *)

  val equal : t -> t -> bool
  (** Equality of normal forms. *)

  val pp : Format.formatter -> t -> unit
end

type t
(** An ITC stamp: id tree plus event tree. *)

val seed : t
(** [(1; 0)] — sole owner, no events. *)

val make : id:Id.t -> event:Event.t -> t
(** Assemble a stamp (the event tree is normalized). *)

val id : t -> Id.t

val event_tree : t -> Event.t

val update : t -> t
(** Record an event: inflate the event tree inside the owned region
    ([fill]), or grow it minimally when inflation cannot absorb the event.
    @raise Invalid_argument on an anonymous (zero-id) stamp. *)

val fork : t -> t * t
(** Split ownership; both sides keep the event tree. *)

val join : t -> t -> t
(** Merge ids and event knowledge.
    @raise Id.Overlap if the ids are not disjoint. *)

val peek : t -> t
(** An anonymous copy (zero id): carries knowledge, cannot update —
    useful as a message timestamp. *)

val sync : t -> t -> t * t
(** [fork (join a b)]. *)

val leq : t -> t -> bool
(** Frontier order on coexisting stamps — compares event trees only. *)

val relation : t -> t -> Vstamp_core.Relation.t

val equal : t -> t -> bool

val size_bits : t -> int
(** Exact wire size under a prefix-free tree code with varint counters —
    comparable with {!Vstamp_core.Stamp.size_bits} and
    {!Vstamp_codec.Wire.stamp_bits}. *)

val well_formed : t -> bool

val pp : Format.formatter -> t -> unit
(** Renders as [(id;event)], e.g. [((1,0);(0,1,0))]. *)

val to_string : t -> string

(** Compact wire format: prefix-free tree codes with varint counters.
    The encoding is canonical on normalized stamps (which every operation
    maintains); the decoder rejects unnormalized trees. *)
module Wire : sig
  type error = Truncated | Malformed of string

  val pp_error : Format.formatter -> error -> unit

  val to_string : t -> string

  val of_string : string -> (t, error) result

  val bits : t -> int
  (** Exact encoded length (equals {!size_bits}). *)
end
