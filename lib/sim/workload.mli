(** Trace generators for the experiments.

    Every generator is deterministic in its [seed] and produces a valid
    {!Vstamp_core.Execution.op} trace (playable from the single-element
    initial frontier).  Synchronization of two live replicas is encoded
    as the paper prescribes: a join immediately followed by a fork. *)

type weights = { update : int; fork : int; join : int }

val uniform :
  ?seed:int ->
  ?weights:weights ->
  ?max_frontier:int ->
  n_ops:int ->
  unit ->
  Vstamp_core.Execution.op list
(** Independent weighted draws; the frontier stays within
    [1, max_frontier] (default 16).  [weights] defaults to
    update 3 / fork 2 / join 2. *)

val deep_fork :
  ?update_between:bool -> depth:int -> unit -> Vstamp_core.Execution.op list
(** Join-free growth: repeatedly fork the newest replica ([depth] times),
    updating it first when [update_between] (default [true]).  Worst case
    for version-stamp id depth; version vectors grow one entry per
    fork. *)

val sync_star :
  ?updates_per_round:int ->
  peers:int ->
  rounds:int ->
  unit ->
  Vstamp_core.Execution.op list
(** The classic fixed-replica-set setting (paper Figures 1 and 3): a hub
    and [peers] satellites; each round every peer updates then syncs with
    the hub.  Join-heavy — version stamps stay small here. *)

val gossip :
  ?seed:int ->
  replicas:int ->
  rounds:int ->
  unit ->
  Vstamp_core.Execution.op list
(** Fixed frontier of [replicas]; each round every replica updates with
    probability 0.5 and one random pair syncs. *)

val churn :
  ?seed:int ->
  target:int ->
  n_ops:int ->
  unit ->
  Vstamp_core.Execution.op list
(** Constant replica creation and retirement pressure around a [target]
    frontier size — the dynamic setting version stamps are designed
    for.  Each op is an update with probability 0.4. *)

val partitioned :
  ?seed:int ->
  replicas:int ->
  groups:int ->
  phases:int ->
  syncs_per_phase:int ->
  unit ->
  Vstamp_core.Execution.op list
(** Alternating partition and heal phases: during odd phases only
    replicas whose label falls in the same of [groups] groups may sync;
    even phases allow any pair; before each sync every replica updates
    with probability 0.5.  Models the paper's mobile scenario.
    @raise Invalid_argument unless [replicas >= 2 * groups]. *)

val all_named : n_ops:int -> (string * Vstamp_core.Execution.op list) list
(** One representative trace per family, sized by [n_ops], for sweep
    experiments. *)
