(** Dotted version vectors (Almeida, Baquero, Gonçalves, Preguiça &
    Fonte, 2012/2014) — server-side causality for key-value stores.

    The same research lineage as version stamps, attacking a different
    corner of the problem: a {e fixed, known} set of server replicas
    accepts writes from {e unboundedly many anonymous clients}.  Each
    stored value carries the {e dot} (server id, per-server sequence) of
    the write that produced it, and the whole entry carries one causal
    context.  A put echoing the context of a previous get causally
    overwrites exactly the siblings that get returned; anything written
    concurrently survives as a sibling — with one context per entry
    rather than one vector per value (the "sibling explosion" fix Riak
    adopted).

    Servers still need unique ids — this is the mechanism for the
    data-center side of the world, where version stamps' autonomous forks
    are unnecessary; the contrast is part of the repository's survey. *)

type dot = { replica : Version_vector.id; counter : int }
(** Identity of one write event. *)

val dot_compare : dot -> dot -> int

type 'a t
(** The server-side state of one key. *)

val empty : 'a t

val is_empty : 'a t -> bool

val values : 'a t -> 'a list
(** Current siblings (concurrent values). *)

val dots : 'a t -> dot list

val context : 'a t -> Version_vector.t
(** Everything this replica has seen for the key. *)

val conflict : 'a t -> bool
(** More than one sibling. *)

val get : 'a t -> 'a list * Version_vector.t
(** Client read: values plus the context to echo into the next {!put}. *)

val put : 'a t -> replica:Version_vector.id -> context:Version_vector.t -> 'a -> 'a t
(** Server write at [replica].  Siblings covered by the client's
    [context] are superseded; concurrent ones survive.  A blind put
    (zero context) supersedes nothing. *)

val remove_covered : 'a t -> context:Version_vector.t -> 'a t
(** Causal delete: siblings covered by [context] disappear, concurrent
    ones survive, and the merged context remains as a tombstone that
    prevents resurrection through {!sync}. *)

val sync : 'a t -> 'a t -> 'a t
(** Anti-entropy: a sibling survives iff the other side also stores it
    or has never seen its dot.  Commutative and idempotent. *)

val well_formed : 'a t -> bool
(** Sibling dots are distinct and covered by the context. *)

val size_bits : 'a t -> int
(** Metadata size (context plus dots; values not counted). *)

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
