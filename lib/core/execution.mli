(** Executions of dynamic replica systems, replayable over any mechanism.

    An execution is a list of operations on an evolving frontier of
    replicas, addressed positionally (the frontier is an ordered list;
    every interpreter uses the same positional semantics, so running the
    same trace over version stamps and over causal histories yields
    element-aligned frontiers — the shape Proposition 5.1 quantifies
    over).

    The frontier starts as a single element.  [Update i] replaces the
    element at position [i] with its updated successor; [Fork i] replaces
    it with its two fork results (left one staying at [i]); [Join (i, j)]
    removes both operands and inserts the merge at [min i j]. *)

type op =
  | Update of int  (** Local update of the replica at this position. *)
  | Fork of int  (** Autonomous creation of a sibling replica. *)
  | Join of int * int  (** Merge two replicas into one. *)

val op_to_string : op -> string

val size_delta : op -> int
(** Frontier-size change: [0], [+1], [-1]. *)

val op_valid : frontier_size:int -> op -> bool
(** Indices in range and, for joins, distinct. *)

val trace_valid : op list -> bool
(** Whether every op is valid when the trace is played from the initial
    single-element frontier. *)

val final_frontier_size : op list -> int
(** Frontier size after a (valid) trace. *)

exception Invalid_op of { op : op; frontier_size : int }

val fork_positions : 'a list -> int -> left:'a -> right:'a -> 'a list
(** The positional fork surgery: replace position [i] with [left] and
    insert [right] after it.  Exposed so structures mirroring a frontier
    (partition groups, labels, display rows) share the exact same
    semantics. *)

val join_positions : 'a list -> int -> int -> merged:'a -> 'a list
(** The positional join surgery: remove positions [i] and [j], insert
    [merged] at [min i j]. *)

(** What an interpreter needs from a tracking mechanism.  [state] threads
    whatever global resource the mechanism requires: [unit] for version
    stamps (the point of the paper), a fresh-event generator for causal
    histories, an id allocator for version vectors. *)
module type SUBJECT = sig
  type t

  type state

  val initial : state * t

  val update : state -> t -> state * t

  val fork : state -> t -> state * (t * t)

  val join : state -> t -> t -> state * t
end

(** A trace interpreter. *)
module type RUN = sig
  type state

  type frontier

  val init : state * frontier

  val apply : state -> frontier -> op -> state * frontier
  (** @raise Invalid_op on an out-of-range or self-join op. *)

  val run_state : op list -> state * frontier

  val run : op list -> frontier
  (** Final frontier of a trace played from the initial configuration. *)

  val run_steps : op list -> frontier list
  (** All frontiers, initial one first — one per prefix of the trace. *)

  val fold : ('a -> frontier -> op -> frontier -> 'a) -> 'a -> op list -> 'a
  (** Visit every transition [before, op, after]. *)
end

(** Trace interpreter over a subject. *)
module Run (S : SUBJECT) :
  RUN with type state = S.state and type frontier = S.t list

module Stamp_subject (S : Stamp.S) : sig
  val make :
    reduce:bool ->
    (module SUBJECT with type t = S.t and type state = unit)
  (** Subject for any stamp instantiation, with or without Section 6
      reduction at joins. *)
end

module Histories :
  SUBJECT with type t = Causal_history.t and type state = Causal_history.Gen.t
(** The Section 2 oracle. *)

module Run_stamps : RUN with type state = unit and type frontier = Stamp.t list
(** Default stamps, reduction on (the realistic configuration). *)

module Run_stamps_nonreducing :
  RUN with type state = unit and type frontier = Stamp.t list
(** The Section 4 non-reducing model. *)

module Run_stamps_list :
  RUN with type state = unit and type frontier = Stamp.Over_list.t list
(** Stamps over the list-based reference names. *)

module Run_histories :
  RUN
    with type state = Causal_history.Gen.t
     and type frontier = Causal_history.t list

val run_lockstep : op list -> (Stamp.t * Causal_history.t) list
(** Play a trace over default stamps and the oracle; the resulting
    frontiers are element-aligned and zipped. *)
