(** A server replica of a replicated key-value store.

    The Riak/Dynamo architecture in miniature: a {e fixed} set of server
    nodes (each with a unique id — the data-center side of the identity
    question) accepts gets, puts and deletes from anonymous clients, and
    reconciles pairwise by anti-entropy.  Per-key causality uses
    {!Vstamp_vv.Dotted_vv}: a put echoing the context of a previous get
    causally overwrites exactly what that get returned; concurrent writes
    survive as siblings; deletes leave tombstone contexts so stale peers
    cannot resurrect removed writes.

    Contrast with {!Vstamp_panasync} and {!Vstamp_crdt.Mv_register},
    which solve the same conflict-detection problem for the {e
    peer-to-peer} side of the world using version stamps, where replicas
    cannot be given server ids at all. *)

type t

val create : id:Vstamp_vv.Version_vector.id -> t
(** A server with a unique, externally assigned id. *)

val entry : t -> string -> string Vstamp_vv.Dotted_vv.t
(** The tracked state of one key (empty entry for unknown keys). *)

val keys : t -> string list
(** Keys with at least one live value, sorted. *)

val tombstones : t -> string list
(** Keys whose values were all deleted but whose causal context remains. *)

val get : t -> string -> string list * Vstamp_vv.Version_vector.t
(** Client read: sibling values plus the causal context to echo into the
    next {!put} or {!delete} of that key. *)

val put :
  t -> key:string -> context:Vstamp_vv.Version_vector.t -> string -> t
(** Client write through this server. *)

val delete : t -> key:string -> context:Vstamp_vv.Version_vector.t -> t
(** Causal delete: removes the siblings the client had seen; concurrent
    writes survive. *)

val conflict : t -> string -> bool
(** Multiple sibling values currently stored for the key. *)

val anti_entropy : t -> t -> t * t
(** Pairwise reconciliation over the union of the two nodes' keys; both
    nodes leave with identical entries. *)

val converged : t -> t -> bool
(** Same live values for every key. *)

val size_bits : t -> int
(** Total causality metadata. *)

val pp : Format.formatter -> t -> unit

(** {1 Live instrumentation}

    Off by default.  When attached, every {!get} / {!put} / {!delete}
    and {!anti_entropy} round counts into
    [kvs_ops_total{op=...}] counters, each get's sibling width into the
    [kvs_get_siblings] histogram, and both nodes' causality-metadata
    size after every anti-entropy round into [kvs_node_size_bits] — the
    feed behind the [/metrics] endpoint of a soaking store. *)
module Obs : sig
  val attach : ?registry:Vstamp_obs.Registry.t -> unit -> unit
  (** Start counting into [registry] (default
      {!Vstamp_obs.Registry.default}).  Re-attaching rebinds to the
      registry given last. *)

  val detach : unit -> unit

  val attached : unit -> bool
end
