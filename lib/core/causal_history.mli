(** Causal histories with a global view — the correctness oracle.

    Section 2 of the paper models update tracking by mapping each frontier
    element to the set of update events in its causal past.  Events carry
    globally unique identities, which is exactly the global view version
    stamps exist to avoid; here the model serves as the oracle against
    which stamps (and every baseline mechanism) are differentially tested:
    Proposition 5.1 says stamp comparison and history inclusion must agree
    on every frontier.

    Histories follow the transformations of Definition 2.1:
    update adds one fresh event, fork duplicates the set, join unions the
    two sets.  The {!Execution} module drives them in lockstep with
    stamps. *)

type event = int
(** A globally unique update event. *)

module Event_set : Set.S with type elt = event

type t = Event_set.t
(** A causal history: the set of update events an element has seen. *)

val empty : t
(** The history of the initial element (Definition 2.1). *)

val of_events : event list -> t

val events : t -> event list
(** Sorted. *)

val add_event : event -> t -> t
(** The update transformation (the caller supplies a fresh event,
    normally from {!Gen}). *)

val union : t -> t -> t
(** The join transformation. *)

val cardinal : t -> int

val subset : t -> t -> bool
(** History inclusion — the pre-order on frontier elements. *)

val equal : t -> t -> bool

val subset_of_union : t -> t list -> bool
(** [subset_of_union x hs] iff [x]'s history is contained in the union of
    [hs] — the set-quantified relation of Proposition 5.1. *)

val relation : t -> t -> Relation.t
(** Equivalent / obsolete / inconsistent, per Section 2. *)

val pp : Format.formatter -> t -> unit

(** Fresh-event generator: the explicit "global view". *)
module Gen : sig
  type t

  val initial : t

  val fresh : t -> event * t
  (** A globally unique event plus the advanced generator. *)

  val issued : t -> int
  (** How many events have been issued. *)
end
