(** A multi-value register replicated with version stamps.

    The Dynamo-style register: each replica carries the causal knowledge
    of its writes in a version stamp.  A write overwrites; a merge keeps
    the dominant side's value, or — when the writes were genuinely
    concurrent — presents {e all} candidate values for the application
    to reconcile.  Because stamps fork locally, register replicas can be
    created anywhere, including inside a network partition, with no id
    service. *)

module Make (S : Vstamp_core.Stamp.S) : sig
  type 'a t
  (** A register replica holding values of type ['a]. *)

  val create : 'a -> 'a t
  (** A fresh register seeded with an initial value (counts as the first
      write). *)

  val restore : stamp:S.t -> 'a list -> 'a t
  (** Rebuild a replica from transported parts (wire decoding, or a
      payload-less phantom for anti-entropy frontier entries).
      @raise Invalid_argument if the stamp is ill-formed. *)

  val stamp : 'a t -> S.t

  val read : 'a t -> 'a list
  (** Current candidates; a singleton when there is no unresolved
      conflict. *)

  val value_exn : 'a t -> 'a
  (** @raise Invalid_argument when multiple concurrent values exist. *)

  val is_conflicted : 'a t -> bool

  val write : 'a t -> 'a -> 'a t
  (** Local write: replaces all candidates and records an update. *)

  val fork : 'a t -> 'a t * 'a t
  (** Replicate the register — fully local. *)

  val merge : 'a t -> 'a t -> 'a t
  (** One-way merge into a single surviving replica.  Structural
      equality deduplicates candidates of concurrent writes. *)

  val sync : 'a t -> 'a t -> 'a t * 'a t
  (** Two-way synchronization: both replicas stay alive with the merged
      candidates and fresh coexisting identities. *)

  val resolve : 'a t -> value:'a -> 'a t
  (** Settle a conflict: the chosen value becomes a new write. *)

  val relation : 'a t -> 'a t -> Vstamp_core.Relation.t

  val pp :
    (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
end

module Over_tree : module type of Make (Vstamp_core.Stamp.Over_tree)

include module type of Over_tree
(** Registers over the default trie-backed stamps. *)
