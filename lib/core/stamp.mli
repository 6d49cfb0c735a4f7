(** Version stamps: decentralized, counter-free version vectors.

    A version stamp is a pair [(update, id)] of {{!Name_intf.S} names}
    (Definition 4.3 of the paper):

    - [id] distinguishes the replica from every other coexisting replica —
      the ids of a frontier partition the binary-string space into
      pairwise-incomparable regions (invariant I2);
    - [update] records which updates the replica has seen, as the ids the
      ancestor replicas had when those updates happened.

    Three operations drive the lifecycle:

    - {!update} marks a local modification: the id is copied into the
      update component;
    - {!fork} creates a new replica {e autonomously} — no id server, no
      coordination: each side appends a distinct digit to every id string;
    - {!join} merges two replicas, taking the name join componentwise and
      (by default) applying the Section 6 reduction so ids shrink back as
      the frontier narrows.

    Synchronization of two live replicas is [fork (join a b)] — see
    {!sync}.

    Ordering coexisting replicas compares {e update components only}:
    [leq a b] iff [update a <= update b] in the name order.  By
    Proposition 5.1 this coincides exactly with inclusion of causal
    histories, so {!relation} classifies two frontier replicas as
    equivalent, obsolete one way or the other, or mutually inconsistent. *)

module type S = sig
  type name
  (** The underlying name representation. *)

  type t
  (** A version stamp.  Immutable. *)

  (** {1 Construction} *)

  val seed : t
  (** The initial stamp [({epsilon}, {epsilon})] — a brand-new, sole
      replica owning the whole id space. *)

  val make : update:name -> id:name -> t
  (** Build a stamp from raw components.
      @raise Invalid_argument if invariant I1 ([update <= id]) fails. *)

  val make_unchecked : update:name -> id:name -> t
  (** [make] without the I1 check; for decoders that validate separately
      with {!well_formed}. *)

  (** {1 Components} *)

  val update_name : t -> name
  (** The update component (what this replica has seen). *)

  val id : t -> name
  (** The id component (who this replica is, within its frontier). *)

  (** {1 The three operations} *)

  val update : t -> t
  (** Record a local update: [(u, i)] becomes [(i, i)].  Idempotent until
      the next fork or join changes the id. *)

  val fork : t -> t * t
  (** Split into two replicas: [(u, i)] becomes [(u, i.0)] and [(u, i.1)].
      Requires no communication with anyone — this is the operation
      version vectors cannot do without an identity source. *)

  val join : ?reduce:bool -> t -> t -> t
  (** Merge two replicas: componentwise name join.  [reduce] (default
      [true]) applies the Section 6 rewriting to normal form, collapsing
      sibling id strings freed by the merge; [~reduce:false] gives the
      non-reducing model of Section 4 (used by the correctness proofs and
      the differential tests). *)

  val sync : t -> t -> t * t
  (** [sync a b = fork (join a b)]: the synchronization idiom — both
      replicas stay alive and leave with identical update components. *)

  val fork_many : t -> int -> t list
  (** [fork_many t n] splits one replica into [n] by repeated forking
      (a fan-out of the whole fleet, still with zero coordination).
      [fork_many t 1] is [[t]].
      @raise Invalid_argument if [n < 1]. *)

  val reduce : t -> t
  (** Normalize a stamp with the Section 6 rule.  All stamps produced by
      {!join} with the default flag are already in normal form. *)

  val is_reduced : t -> bool
  (** Whether the stamp is its own normal form. *)

  (** {1 Ordering coexisting replicas} *)

  val leq : t -> t -> bool
  (** [leq a b] iff [a]'s update component is dominated by [b]'s — [a]'s
      known updates are all known to [b].  Only meaningful for replicas of
      the same frontier. *)

  val relation : t -> t -> Relation.t
  (** Classify two coexisting replicas. *)

  val equivalent : t -> t -> bool
  (** Same causal history. *)

  val obsolete : t -> t -> bool
  (** [obsolete a b] iff [a] is strictly dominated: it can be discarded in
      favour of [b]. *)

  val inconsistent : t -> t -> bool
  (** Mutually inconsistent — a genuine conflict requiring reconciliation. *)

  val dominates_all : t -> t list -> bool
  (** [dominates_all x s] iff [x]'s update component dominates the join of
      the update components of [s] — [x] has seen every update seen by
      any member of [s]. *)

  val dominated_by_join : t -> t list -> bool
  (** [dominated_by_join x s] iff [x]'s update component is dominated by
      the join of the update components of [s] — the set-quantified
      relation [R(V)] of Proposition 5.1: everything [x] has seen, some
      member of [s] has seen. *)

  (** {1 Equality, size, diagnostics} *)

  val equal : t -> t -> bool
  (** Componentwise name equality (both [update] and [id]). *)

  val compare : t -> t -> int
  (** Arbitrary total order for containers; compatible with {!equal}. *)

  val size_bits : t -> int
  (** Total length of all strings in both components — the wire-size
      metric used by the experiments. *)

  val id_width : t -> int
  (** Number of strings in the id component. *)

  val max_depth : t -> int
  (** Longest string in either component. *)

  val well_formed : t -> bool
  (** Representation invariants plus I1. *)

  val has_updates : t -> bool
  (** Whether any update is recorded ([update] is non-empty).  [seed] has
      [has_updates = true] since its update component is [{epsilon}]. *)

  val pp : Format.formatter -> t -> unit
  (** Paper notation: [[u|i]], e.g. [[1|0+1]]. *)

  val to_string : t -> string
end

module Make (N : Name_intf.S) : S with type name = N.t
(** Build the stamp structure over any name representation. *)

module Over_list : S with type name = Name.t
(** Stamps over {!Name} (sorted lists) — the executable specification. *)

module Over_tree : S with type name = Name_tree.t
(** Stamps over {!Name_tree} (binary tries) — the fast path. *)

module Over_packed : S with type name = Name_packed.t
(** Stamps over {!Name_packed} (hash-consed tries with memoized
    operations) — the packed backend. *)

include S with type name = Name_tree.t and type t = Over_tree.t
(** The default implementation is {!Over_tree}. *)
