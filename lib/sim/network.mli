(** Distributed synchronization by identity hand-off over a message layer.

    Version stamps synchronize by [join] then [fork] — which requires the
    two replicas to meet.  Over a network that means {e sending the
    replica}: the initiator wire-encodes its stamp (via
    {!Vstamp_codec.Wire}), ships it to the peer and retires locally; the
    peer joins, forks, keeps one half and returns the other; the
    initiator adopts it.  While its identity is in flight a node performs
    no updates.  A request reaching a node whose own identity is in
    flight bounces back unchanged (a refused sync), keeping the protocol
    deadlock-free under arbitrary message reordering.

    The transport delays and reorders but never drops or duplicates —
    replica hand-off needs reliability, for stamps exactly as for
    dynamic version vectors.  Causal histories ride along as the oracle:
    {!consistent_with_oracle} checks every live pair after any schedule. *)

type t

exception Protocol_error of string
(** A malformed wire stamp or a reply reaching a non-waiting node —
    impossible under correct use; surfaced for the fuzz tests. *)

val create : nodes:int -> t
(** [nodes] replicas forked from one seed, all idle, no messages.
    @raise Invalid_argument if [nodes < 1]. *)

val node_count : t -> int

val is_idle : t -> int -> bool

val stamp_of : t -> int -> Vstamp_core.Stamp.t option
(** [None] while the node's identity is in flight. *)

val inflight_count : t -> int

val quiescent : t -> bool
(** No messages in flight and nobody waiting. *)

(** {1 Events} *)

val update : t -> int -> t option
(** Local update at a node; [None] if it is waiting. *)

val start_sync : t -> from:int -> target:int -> t option
(** Ship [from]'s replica towards [target]; [None] if [from] is waiting.
    @raise Invalid_argument on a self-sync. *)

val deliver : t -> int -> t option
(** Deliver the k-th in-flight message (any index: the transport
    reorders); [None] if the index is out of range. *)

(** {1 Random driver} *)

val step : Rng.t -> t -> t * Rng.t
(** One random event: an update with probability 0.45, a sync started
    with 0.25, otherwise the delivery of a random in-flight message. *)

val drain : t -> t
(** Deliver everything in flight (in queue order) until quiescent.
    @raise Protocol_error if the network fails to quiesce. *)

val run : seed:int -> steps:int -> nodes:int -> unit -> t
(** [steps] random events from a fresh network, then {!drain}. *)

(** {1 Whole-network checks} *)

val consistent_with_oracle : t -> bool
(** Every pair of live replicas ordered identically by stamps and by the
    causal histories carried alongside. *)

val frontier : t -> Vstamp_core.Stamp.t list
(** Stamps of the idle nodes. *)

val stats : t -> int * int * int
(** [(updates, syncs started, messages delivered)]. *)
