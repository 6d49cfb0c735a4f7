(** Identity-space observatory: a fragment inventory over a replica
    population.

    A version stamp's id is a set of {e fragments} of the binary
    identity space — each fragment a path of ['0']/['1'] digits naming
    a dyadic subinterval ([""] is the whole space).  The paper's
    invariant I2 says the live replicas' fragments always {e tile} the
    space exactly: every point is covered ({e no leak}) by exactly one
    fragment ({e no overlap}).  This module audits that
    partition-of-unity property with positional witnesses, computes
    fragmentation analytics (width/depth distributions, fragmentation
    entropy, reduce-effectiveness against an oracle minimum), and
    keeps a genealogy DAG of fork/retire lineage with DOT and
    JSON export.

    Like the rest of [vstamp.obs] the module is core-free: fragments
    arrive as plain [string list]s of binary paths, so any backend (or
    a test generator) can feed it. *)

type fragment = string list
(** The id of one replica: binary digit strings, [""] meaning the
    whole space.  An empty list is a replica owning nothing (always a
    leak). *)

(** {1 Partition-of-unity audit} *)

type violation =
  | Overlap of { a : string; a_frag : string; b : string; b_frag : string }
      (** Owners [a] and [b] both cover the point region under the
          shorter of [a_frag]/[b_frag] (one is a prefix of the other,
          or they are equal). *)
  | Leak of { path : string }
      (** No live fragment covers the subtree at [path]. *)
  | Malformed of { owner : string; frag : string }
      (** [frag] contains a character other than ['0']/['1']. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_json : violation -> Jsonx.t

type audit = {
  audited : int;  (** replicas examined *)
  audit_fragments : int;  (** fragment strings examined *)
  violations : violation list;  (** empty iff the fragments tile exactly *)
}

val audit_fragments : (string * fragment) list -> audit
(** Audit an arbitrary [(owner, fragment)] inventory.  Violations are
    reported in deterministic depth-first (0-before-1) order of the
    witness position; at most one witness per trie position. *)

(** {1 Fragmentation analytics} *)

type stats = {
  live : int;  (** live replicas *)
  fragments : int;  (** total fragment strings across live replicas *)
  id_bits : int;  (** total digits across live fragments *)
  oracle_bits : int;
      (** minimal total digits any exact tiling with [live] leaves can
          achieve (minimal external path length of a binary tree) *)
  max_depth : int;  (** longest live fragment *)
  max_width : int;  (** most fragments held by one replica *)
  mean_width : float;  (** [fragments / live] ([0.] when empty) *)
  entropy : float;
      (** fragmentation entropy: expected digits needed to address the
          owner of a uniformly random point, [sum 2^-d * d] over live
          fragment depths [d] *)
  oracle_entropy : float;  (** the same expectation for the oracle tiling *)
  reduce_effectiveness : float;
      (** [oracle_bits / id_bits] — 1.0 means joins/reduce reclaimed
          every reclaimable digit; [1.] when [id_bits = 0] *)
  width_dist : (int * int) list;  (** fragments-per-replica -> replicas *)
  depth_dist : (int * int) list;  (** fragment depth -> fragments *)
}

val oracle_bits : int -> int
(** [oracle_bits n] is the minimal external path length of a binary
    tree with [n] leaves: the fewest total id digits an adversary-free
    tiling of [n] replicas can use.  [0] for [n <= 1]. *)

val oracle_entropy : int -> float

val stats_of_fragments : (string * fragment) list -> stats

(** {1 Genealogy inventory}

    A mutable inventory tracking the live population and its lineage.
    Nodes are replica incarnations; [fork] consumes one node and
    yields two, [retire] consumes two and yields one, [refresh]
    updates a live node's fragment in place (the join-then-fork of an
    ordinary sync, which changes ids without changing the population).
    All operations are O(1) amortised except audits/stats, which walk
    the live set. *)

type t

type node_id = int

type via = Seed | Fork | Join | Retire
(** No operation records [Join]; it stays a name in the export formats. *)

type node = {
  id : node_id;
  label : string;
  via : via;
  parents : node_id list;  (** for [Retire], survivor first, retiree second *)
  born : int;  (** event sequence number *)
  mutable frag : fragment;
  mutable died : int option;  (** event seq at which the node was consumed *)
  mutable refreshes : int;
}

val create : unit -> t

val seed : ?label:string -> t -> fragment -> node_id
(** Add a live root (label defaults to ["n<id>"]). *)

val fork :
  ?labels:string * string ->
  t ->
  node_id ->
  left:fragment ->
  right:fragment ->
  node_id * node_id
(** Consume a live node, yield two live children.  Digits added
    ([bits left + bits right - bits parent], when positive) accumulate
    in {!fork_bits}.  @raise Invalid_argument if the parent is not
    live. *)

val retire : ?label:string -> t -> survivor:node_id -> node_id -> fragment -> node_id
(** Consume two live nodes, yield one live [Retire] child holding
    [fragment]: [retiree] is retired into [survivor].  Digits reclaimed
    ([bits survivor + bits retiree - bits child], when positive)
    accumulate in {!reclaimed_bits}.  @raise Invalid_argument unless
    both parents are live and distinct. *)

val refresh : t -> node_id -> fragment -> unit
(** Replace a live node's fragment in place (no genealogy node).
    Digits dropped accumulate in {!reclaimed_bits}.  Also the fault
    -injection hook: refreshing with an overlapping or leaky fragment
    corrupts the inventory so the audit's witnesses can be exercised.
    @raise Invalid_argument if the node is not live. *)

val find : t -> node_id -> node option

val live : t -> node_id list
(** Live node ids in increasing id order. *)

val live_count : t -> int

val node_count : t -> int
(** All incarnations ever recorded. *)

val audit : t -> audit
(** {!audit_fragments} over the live population. *)

val stats : t -> stats

val forks : t -> int

val retires : t -> int

val refreshes : t -> int

val reclaimed_bits : t -> int
(** Cumulative id digits reclaimed by retires and refreshes. *)

val fork_bits : t -> int
(** Cumulative id digits added by forks. *)

(** {1 Export} *)

val to_dot : t -> string
(** Graphviz digraph of the genealogy: live nodes bold, consumed nodes
    grey, retire edges dashed. *)

val to_json : t -> Jsonx.t
(** Full export (schema ["vstamp-idspace/1"]): every node with lineage
    and fragment, plus its {!stats} and the current audit. *)

(** {1 Metrics} *)

val publish : ?registry:Registry.t -> t -> unit
(** Set the [vstamp_idspace_*] gauges (live_replicas, fragments,
    id_bits, oracle_bits, entropy, oracle_entropy, max_depth,
    mean_width, reduce_effectiveness, audit_violations,
    genealogy_nodes) and advance the [vstamp_idspace_ops_total{op=..}],
    [vstamp_idspace_reclaimed_bits_total] and
    [vstamp_idspace_fork_bits_total] counters by their growth since
    the previous [publish] (counters are shared across runs, so only
    deltas are added). *)

val view_json : Registry.t -> Jsonx.t
(** The [GET /idspace.json] payload: the [vstamp_idspace_*] families
    assembled from a registry snapshot (the same registry-derived
    pattern as [Convergence.lag_json]). *)
