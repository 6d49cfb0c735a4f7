(** Plausible clocks (Torres-Rojas & Ahamad 1999) — constant-size
    approximate causality.

    The R-entries-vector construction folds every replica id onto a fixed
    number of counter slots ([id mod size]).  The resulting order is
    {e plausible}: whenever it reports two values ordered-or-equal it may
    be wrong (two concurrent histories can fold onto comparable vectors),
    but whenever it reports them concurrent they truly are — folding can
    only lose distinctions, never invent them, so real causal order is
    always preserved.  Experiment E5 measures the misclassification rate
    against the causal-history oracle as a function of [size]. *)

type t

val create : size:int -> t
(** All-zero clock with [size] slots.
    @raise Invalid_argument if [size <= 0]. *)

val size : t -> int

val slot : t -> id:int -> int
(** The slot a replica id folds onto. *)

val get : t -> int -> int
(** Counter in a slot. *)

val increment : t -> id:int -> t
(** An update by replica [id]. *)

val merge : t -> t -> t
(** Pointwise maximum.
    @raise Invalid_argument on size mismatch. *)

val leq : t -> t -> bool
(** Pointwise comparison — the plausible order.
    @raise Invalid_argument on size mismatch. *)

val relation : t -> t -> Vstamp_core.Relation.t
(** May answer [Equal]/[Dominated]/[Dominates] for truly concurrent
    histories; never answers [Concurrent] for ordered ones. *)

val size_bits : t -> int
(** Wire-size estimate (no ids on the wire — the vector is positional). *)

val pp : Format.formatter -> t -> unit
