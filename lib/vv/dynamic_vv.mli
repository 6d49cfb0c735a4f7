(** Dynamic version vectors (after Ratner, Reiher & Popek 1997).

    Classic version vectors assume a fixed replica set.  The dynamic
    variant lets replicas be created and retired: a new replica's entry
    appears in vectors only at its first update (lazy growth), and
    retired replicas leave behind their final counters until every live
    replica has absorbed them, at which point {!compact} drops the entry.

    Creation still needs a fresh unique identifier ([new_id]) — the
    allocation problem remains; this baseline exists to compare sizes and
    to show exactly which operation version stamps make autonomous. *)

type t
(** A replica with its dynamic version vector. *)

val create : id:Version_vector.id -> t

val id : t -> Version_vector.id

val vector : t -> Version_vector.t
(** Live entries only (excludes retirement baggage). *)

val effective : t -> Version_vector.t
(** Live entries merged with retired baggage — what comparisons use. *)

val update : t -> t

val fork : t -> new_id:Version_vector.id -> t * t
(** Parent and child; the child carries the parent's knowledge and a
    fresh identity that must be globally unique. *)

val join : t -> t -> survivor_id:Version_vector.id -> t
(** Merge two replicas into one surviving identity. *)

val retire : t -> t
(** The replica stops updating; its counters become baggage to be handed
    to a survivor with {!absorb}. *)

val absorb : t -> t -> t
(** [absorb survivor departed] merges a retired replica's state in. *)

val sync : t -> t -> t * t
(** Bidirectional synchronization (merge both ways). *)

val compact : live:t list -> t -> t
(** Drop retired entries that every live replica already dominates —
    the garbage-collection step that keeps dynamic vectors small. *)

val gc : live:t list -> t -> t
(** Alias of {!compact}: the name the churn scenario and the property
    tests use.  Soundness contract: gc never changes {!effective}
    comparisons among the live population, and a retired entry is
    dropped only when every live replica's vector dominates it. *)

val retired_vector : t -> Version_vector.t
(** The retirement baggage alone. *)

val retired_entry_count : t -> int
(** Width of the retirement baggage — the quantity E17 charts against
    stamp id-bit reclamation. *)

val relation : t -> t -> Vstamp_core.Relation.t

val leq : t -> t -> bool

val entry_count : t -> int
(** Width including retirement baggage. *)

val size_bits : t -> int
(** Wire-size estimate, comparable with {!Vstamp_core.Stamp.size_bits}. *)

val pp : Format.formatter -> t -> unit
