(** Models of unique-identifier acquisition.

    Version vectors, dynamic version vectors and vector clocks all need a
    globally unique id per participant.  The paper's motivation is that
    the usual ways of getting one break under partitioned operation:

    - {!Central} — an always-reachable counter service (the
      well-connected assumption; never fails, never collides);
    - {!Partitioned} — the same service, but reachable only from the
      network partition it lives in: allocation from any other group
      fails with [`Unavailable].  This is the scenario of experiment E6
      where replica creation simply cannot proceed;
    - {!Random} — probabilistic ids (the workaround the paper explicitly
      rejects): always "succeeds", but collisions silently corrupt
      causality; the model counts them.

    Version stamps need none of this: {!Vstamp_core.Stamp.fork} is local. *)

type error = [ `Unavailable ]

type policy =
  | Central
  | Partitioned of { server_group : int }
  | Random of { bits : int }

type t

val make : ?seed:int64 -> policy -> t

val alloc : ?group:int -> t -> (int * t, error * t) result
(** Request an id from a replica living in [group] (default [0]).
    [Partitioned] refuses requests from other groups and counts the
    failure; [Random] may silently reuse an id and counts the
    collision. *)

val issued_count : t -> int

val collisions : t -> int
(** Ids issued more than once (only [Random] can be non-zero). *)

val failures : t -> int
(** Refused allocations (only [Partitioned] can be non-zero). *)

val pp_policy : Format.formatter -> policy -> unit
