(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in workloads, scenarios and experiments flows through
    this module with explicit seeds, so every experiment in
    EXPERIMENTS.md is exactly reproducible.  The generator is pure:
    every draw returns the advanced state. *)

type t

val make : int -> t
(** Seeded generator. *)

val int : t -> int -> int * t
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float * t
(** Uniform in [0, 1). *)

val below : t -> float -> bool * t
(** [below t p] is [true] with probability [p]. *)

val pick : t -> 'a list -> 'a * t
(** Uniform choice.  @raise Invalid_argument on an empty list. *)

val pick_weighted : t -> (int * 'a) list -> 'a * t
(** Choice proportional to integer weights.
    @raise Invalid_argument on empty input or non-positive total. *)

val split : t -> t * t
(** Two independent generators. *)

val shuffle : t -> 'a list -> 'a list * t
(** Fisher–Yates shuffle. *)
