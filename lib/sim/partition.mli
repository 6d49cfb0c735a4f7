(** Network partitions over an evolving frontier.

    A partition assigns every frontier position to a group; replicas can
    only join (synchronize) within their group — the paper's partitioned
    mode of operation.  The assignment is mirrored through the same
    positional semantics as {!Vstamp_core.Execution}, so it stays aligned
    with any frontier produced from the same trace.  Forked children are
    born into their parent's group; a join's result lives in the
    operands' (necessarily common) group. *)

type t

val initial : t
(** Single replica, group 0. *)

val of_groups : int list -> t
(** Explicit assignment, one group per frontier position. *)

val groups : t -> int list

val size : t -> int

val apply : t -> Vstamp_core.Execution.op -> t
(** Mirror one operation. *)

val positions_in : t -> int -> int list
(** Frontier positions currently in a group. *)

val op_allowed : t -> Vstamp_core.Execution.op -> bool
(** Updates and forks are always local; joins require a common group. *)

val regroup : t -> int list -> t
(** Replace the assignment (a partition change / heal).
    @raise Invalid_argument if the arity differs from the frontier. *)

val round_robin : groups:int -> int -> int list
(** Assignment scattering [n] positions over [groups] groups.
    @raise Invalid_argument if [groups <= 0]. *)

val merge_all : t -> t
(** Heal: everyone into group 0. *)

val group_count : t -> int
