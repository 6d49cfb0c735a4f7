(** Append-only causal event DAG of a replica run.

    One node per replica state: the seed, the result of an update, each
    side of a fork, the result of a join.  Parent edges point at the
    state(s) the node was derived from, so the DAG is exactly the
    fork/update/join causal structure of the execution — the artifact
    the [vstamp trace] forensics record, replay and explain.

    Nodes carry stable ids (allocation order, starting at 0), the
    {e logical step} at which they were created (deterministic — never a
    wall clock), the frontier position they occupied at creation, and a
    free-form textual label (typically the stamp in paper notation).

    The structure is append-only: nodes can be added, never removed or
    edited, and a parent must already exist when its child is added.
    [of_jsonl (to_jsonl t)] recovers [t] exactly. *)

type kind =
  | Seed  (** An initial replica; no parents. *)
  | Update  (** Result of a local update; one parent. *)
  | Fork_left  (** Left (position-keeping) result of a fork; one parent. *)
  | Fork_right  (** Right (new sibling) result of a fork; one parent. *)
  | Join  (** Result of merging two replicas; two parents. *)

val kind_to_string : kind -> string
(** ["seed"] / ["update"] / ["fork.l"] / ["fork.r"] / ["join"]. *)

type node = {
  id : int;  (** Stable id: position in allocation order. *)
  step : int;  (** Logical step stamp of the creating operation. *)
  kind : kind;
  parents : int list;  (** Ids of the derived-from nodes, all [< id]. *)
  replica : int;  (** Frontier position at creation. *)
  label : string;  (** Payload, e.g. the stamp in paper notation. *)
}

type t

val create : unit -> t

val add :
  t ->
  step:int ->
  kind:kind ->
  parents:int list ->
  replica:int ->
  label:string ->
  int
(** Append a node and return its id.
    @raise Invalid_argument if a parent id is out of range, if the
    parent count does not match the kind (0 for [Seed], 1 for
    [Update]/[Fork_left]/[Fork_right], 2 for [Join]), or if [step] or
    [replica] is negative. *)

val length : t -> int

val nodes : t -> node list
(** All nodes in id order. *)

val node : t -> int -> node option

val equal : t -> t -> bool

(** {1 DAG queries} *)

val ancestors : t -> int -> int list
(** Ids of the node and all its transitive parents, ascending.
    @raise Invalid_argument on an out-of-range id. *)

val latest_common_ancestor : t -> int -> int -> int option
(** The highest-id node that is an ancestor (inclusive) of both — where
    the two lineages last shared state. *)

val find_by_label : t -> string -> int option
(** The {e latest} node carrying the label, if any. *)

(** {1 JSONL form (canonical, round-trips)} *)

val to_jsonl : t -> string
(** One event per line, trailing newline included. *)

val of_jsonl : string -> (t, string) result
(** Parses {!to_jsonl} output through {!Jsonl.parse}: blank lines are
    ignored, and a malformed line is an error naming its number. *)

(** {1 Graphviz DOT} *)

val to_dot : t -> string
(** A [digraph] with one node per DAG node (label escaped by
    {!Dot.escape}, so quotes, backslashes and line breaks in stamp text
    cannot break the syntax) and one edge per parent link. *)

(** {1 Chrome trace-event JSON (Perfetto-loadable)} *)

val to_chrome : t -> Jsonx.t
(** A Chrome trace: one complete ([ph:"X"]) slice per node
    (timestamps are the logical step in microseconds, [tid] the frontier
    position at creation) plus a flow-event pair ([ph:"s"]/[ph:"f"]) per
    parent edge, so the causal arrows render in Perfetto / chrome://tracing.
    Written by {!Chrome.trace}. *)
