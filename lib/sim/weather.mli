(** Partition weather: asymmetric, evolving connectivity for soaks and
    convergence experiments.

    Where {!Partition} models a fixed set of groups the caller manages
    explicitly, weather derives the whole connectivity history from a
    seed: time is cut into epochs, and each epoch draws a fresh random
    grouping of the replicas whose expected fragmentation grows with
    [severity].  Group sizes are deliberately {e unequal} (each replica
    draws its group independently), so partitions are asymmetric — a
    large connected component drifts slowly while small islands starve,
    which is the regime where per-replica lag spreads out.

    Deterministic: the grouping at any [step] is a pure function of
    [(seed, severity, epoch, step / epoch, n)]. *)

type t

val make : ?seed:int -> ?epoch:int -> severity:float -> unit -> t
(** [severity] in [[0, 1]]: [0.] is permanently fully connected, [1.]
    fragments the replicas into (expected) one-replica islands.
    [epoch] (default 8) is the number of steps a grouping lasts;
    [seed] defaults to 0.
    @raise Invalid_argument if [severity] is outside [[0, 1]] or
    [epoch < 1]. *)

val groups_at : t -> step:int -> n:int -> int array
(** The group label of each of [n] replicas during the epoch containing
    [step].  Labels are arbitrary ints; equality means connectivity. *)

val allowed : t -> step:int -> n:int -> int -> int -> bool
(** Whether replicas [i] and [j] (positions below [n]) may communicate
    at [step]: same group in the current epoch.  Reflexive. *)

val group_count : t -> step:int -> n:int -> int
(** Distinct groups in the current epoch — 1 when fully connected. *)
