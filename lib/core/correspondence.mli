(** Executable form of the paper's main theorem.

    Proposition 5.1: for any execution played over both causal histories
    [C] and version stamps [V] (element-aligned frontiers), and for every
    element [x] and non-empty subset [S] of the frontier,

    {v C(x) included-in Union C[S]  iff  fst(V(x)) <= Join fst[V[S]] v}

    Corollary 5.2 is the pairwise case [S = {y}].  These checkers take the
    two frontiers produced by {!Execution.run_lockstep} (or any aligned
    pair) and search for a disagreement; the property tests assert none is
    ever found, and the mutation tests assert one {e is} found when the
    mechanism is deliberately broken. *)

module Make (S : Stamp.S) : sig
  type counterexample = {
    position : int;  (** The element [x]. *)
    subset : int list;  (** The set [S] of frontier positions. *)
    stamp_leq : bool;  (** What the stamps answered. *)
    history_subset : bool;  (** What the oracle answered. *)
  }

  val pp_counterexample : Format.formatter -> counterexample -> unit

  val subsets : ?max_subset_size:int -> int -> int list list
  (** Non-empty subsets of [0..n-1]; exponential, intended for the small
      frontiers of property tests. *)

  val pairwise_counterexample :
    S.t list -> Causal_history.t list -> counterexample option
  (** Corollary 5.2: first pairwise disagreement, if any. *)

  val pairwise_agree : S.t list -> Causal_history.t list -> bool

  val set_counterexample :
    S.t list -> Causal_history.t list -> counterexample option
  (** Proposition 5.1: first set-quantified disagreement, if any. *)

  val set_agree : S.t list -> Causal_history.t list -> bool
end
