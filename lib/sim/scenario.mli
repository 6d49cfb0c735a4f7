(** The paper's figures as executable, checkable artifacts.

    Each scenario reproduces one figure of the paper exactly:
    re-running it regenerates the published states, and a [matches_paper]
    (or agreement) predicate asserts the published values.  The benchmark
    harness prints these, and the test suite pins them. *)

(** Figure 1: update tracking among three fixed replicas with classic
    version vectors.  A updates twice, C updates once, A→B and B↔C
    synchronizations propagate state; the final vectors are
    A=\[2,0,0\], B=C=\[1,0,1\] with A mutually inconsistent with B/C. *)
module Fig1 : sig
  type step = { replica : string; vector : Vstamp_vv.Version_vector.t }

  type t = {
    timeline : (string * step list) list;
    final : (string * Vstamp_vv.Version_vector.t) list;
    relations : (string * string * Vstamp_core.Relation.t) list;
  }

  val run : unit -> t

  val expected_final : (string * int list) list
  (** The counter triples printed in the paper. *)

  val matches_paper : t -> bool
end

(** Figures 2 and 4: the fork/join evolution of eleven elements and the
    version stamps it produces, including the post-join rewrite chain
    [\[1|00+01+1\] -> \[1|0+1\] -> \[eps|eps\]]. *)
module Fig4 : sig
  val trace : Vstamp_core.Execution.op list
  (** The Figure 2 evolution in positional-trace form. *)

  type t = {
    named_steps : (string * Vstamp_core.Stamp.t) list;
        (** The figure's element names (a1, a2, b1, c1, d1, e1, c2, c3,
            f1, g1) with their stamps. *)
    g_unreduced : Vstamp_core.Stamp.t;
        (** The final join before simplification: [\[1|00+01+1\]]. *)
    g_reduction_chain : Vstamp_core.Stamp.t list;
        (** The three stamps of the rewrite chain. *)
    final : Vstamp_core.Stamp.t;  (** [\[eps|eps\]]. *)
  }

  val run : unit -> t

  val matches_paper : t -> bool

  val frontier_queries :
    t -> (string * string * Vstamp_core.Relation.t) list
  (** Sample coexisting-element queries (d1 vs c3, e1, f1). *)
end

(** Figure 3: the Figure 1 run re-encoded under fork-and-join dynamics
    (synchronization = join;fork).  The stamp encoding and the
    version-vector original must induce identical frontier relations. *)
module Fig3 : sig
  type t = {
    stamps : (string * Vstamp_core.Stamp.t) list;
    vectors : (string * Vstamp_vv.Version_vector.t) list;
    stamp_relations : (string * string * Vstamp_core.Relation.t) list;
    vv_relations : (string * string * Vstamp_core.Relation.t) list;
  }

  val run : unit -> t

  val encodings_agree : t -> bool
end

(** Frontier bookkeeping along the Figure 2 trace, illustrating the
    Section 1.2 distinction between frontier and overall ordering. *)
module Frontiers : sig
  val frontier_sizes : unit -> int list
end
