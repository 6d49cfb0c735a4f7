(** An observed-remove set on the dot kernel.

    The foundation of the same authors' delta-CRDT line (Almeida, Shoker
    & Baquero, 2015 onward): every {!add} creates a uniquely dotted
    instance of the element; {!remove} drops the instances this replica
    has observed; the causal context remembers every dot ever seen, so a
    {!merge} with a stale peer cannot reintroduce removed instances.
    Concurrent add and remove of the same element resolve add-wins: the
    fresh dot escapes the remover's context.

    The causal context is a version vector plus a {e dot cloud} for
    non-contiguous dots — exactly what lets a delta say "I have seen
    precisely this one dot" (a plain vector cannot), which is the crux of
    the delta construction.

    Replicas need unique ids (like {!Kv_node}, unlike version stamps) —
    this module completes the repository's survey of the dotted,
    server-id side of the design space. *)

type 'a t

val create : id:Vstamp_vv.Version_vector.id -> 'a t
(** An empty set replica with a unique id. *)

val elements : 'a t -> 'a list
(** Distinct elements, sorted. *)

val mem : 'a t -> 'a -> bool

val cardinal : 'a t -> int
(** Number of distinct elements. *)

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> 'a t
(** Add (another dotted instance of) an element. *)

val remove : 'a t -> 'a -> 'a t
(** Remove every instance of the element this replica currently
    observes.  A no-op if absent. *)

val clear : 'a t -> 'a t
(** Remove everything observed. *)

val merge : 'a t -> 'a t -> 'a t
(** Dot-kernel join: commutative, associative, idempotent; removed
    instances never resurface; concurrent adds win over removes. *)

(** {1 Delta mutators}

    A delta is a small set-state shipping only the change; {!apply_delta}
    is the same dot-kernel join, so deltas compose by {!merge} and can be
    buffered, batched and re-sent freely (join is idempotent). *)

val add_delta : 'a t -> 'a -> 'a t
(** The delta an {!add} would produce.  Apply locally {e and} remotely:
    [apply_delta s (add_delta s v)] equals [add s v]. *)

val remove_delta : 'a t -> 'a -> 'a t
(** The delta of removing every observed instance of [v]: pure causal
    context, no entries. *)

val apply_delta : 'a t -> 'a t -> 'a t
(** Join a delta (or any remote state) into a replica, keeping the
    replica's identity. *)

val well_formed : 'a t -> bool
(** Every live dot is covered by the context. *)
