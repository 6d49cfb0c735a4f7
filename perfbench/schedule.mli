(** The three workloads and their seeded op schedules.

    A {e block} is the op sequence one freshly built cluster runs; the
    benchmark repeats the same block on fresh clusters, so every block
    of a run sends identical bytes and grows identical stamps. *)

type write = { node : int; key : int; value : string }

type op = {
  writes : write list;  (** In put order; concurrent across nodes. *)
  syncs : int list;  (** Nodes that run [sync_now], in order. *)
  visible : int list;  (** Keys the op makes visible, each once. *)
}

type spec = { name : string; nodes : int; keys : int; value_bytes : int }

val mesh_rewrite : spec

val pair_dense : spec

val pair_bulk : spec

val find : string -> spec option

val key_name : int -> string

val preload_value : spec -> seed:int -> int -> string
(** The value key [k] holds after setup. *)

val block : spec -> seed:int -> op array
(** One block of ops.  For [mesh-rewrite] the block is checked against
    {!rewrite_cap}.
    @raise Failure if a key would be rewritten more often. *)

val rewrite_cap : int
(** Ops per cluster that may rewrite one [mesh-rewrite] key: 3.  Stamps
    in a three-replica mesh grow exponentially with rewrite cycles. *)

val mesh_ops : passes:int -> seed:int -> op array
(** The [mesh-rewrite] schedule with [passes] sweeps of the key space;
    {!block} uses [passes = rewrite_cap]. *)

val rewrites_per_key : keys:int -> op array -> int array
(** How many ops make each key visible. *)

val check_cap : cap:int -> keys:int -> op array -> (unit, string) result
