(** A networked [vstamp] node: a {!Vstamp_kvs.Stamped_kv} replica served
    over the [vstamp-sync/2] framed protocol on loopback/LAN TCP.

    One node owns one store, one {!Vstamp_obs.Tcp} server with a
    responder thread per accepted connection (at most
    {!Vstamp_obs.Tcp.max_connections} at once), and (optionally) one
    dial thread per configured peer running periodic anti-entropy
    rounds with exponential backoff.  A round is the engine session
    split across the wire — Offer (frontier) → Want → Items → Result —
    so a pair of nodes converges to stores byte-identical to an
    in-process [Stamped_kv.sync].

    The dialers and {!sync_now} share one initiator path: each round
    opens its own connection (connect, Hello, the round, Bye, close).
    A responder still serves any number of rounds on one connection.

    Metric families bound into the node's registry: [net_rounds_total],
    [net_tx_bytes_total], [net_rx_bytes_total],
    [net_protocol_errors_total], [net_reconnects_total],
    [net_peers_connected], [net_store_keys], [net_store_digest], plus
    the [net_sync_*] delta-ledger family ({!Vstamp_sync.Ledger}). *)

module Make (B : Vstamp_core.Backend.S) : sig
  module KV : module type of Vstamp_kvs.Stamped_kv.Make (B.Stamp)

  type t

  val create :
    ?registry:Vstamp_obs.Registry.t ->
    ?interval_s:float ->
    ?idle_timeout_s:float ->
    ?addr:string ->
    node_id:string ->
    backend:string ->
    port:int ->
    peers:(string * int) list ->
    unit ->
    t
  (** Bind and listen on [addr:port] ([port = 0] picks an ephemeral
      port — see {!port}) and start the accept thread.  [interval_s]
      (default 1s) spaces the periodic rounds of {!start_dialers};
      [idle_timeout_s] (default 60s) is the send and receive timeout of
      every connection, served or dialed.  [backend] is the stamp-backend key
      advertised in the handshake (informational: the wire encoding is
      canonical across backends).
      @raise Unix.Unix_error when the bind fails. *)

  val start_dialers : t -> unit
  (** Launch one periodic anti-entropy thread per configured peer: a
      round every [interval_s], each on a connection of its own; after
      a failed round, the next comes after the backoff delay instead.
      Separate from {!create} so a node can instead be driven
      deterministically by {!sync_now}. *)

  val sync_now : t -> int
  (** One synchronous anti-entropy round against every configured peer,
      each over its own connection, the same round a dialer runs;
      returns how many peers completed the round.  Usable with or
      without {!start_dialers}, and after {!stop}. *)

  val port : t -> int
  (** The port actually bound (resolves [port = 0]). *)

  val put : t -> key:string -> string -> unit
  (** Local write into the node's store (thread-safe). *)

  val get : t -> string -> string list

  val keys : t -> string list

  val digest : t -> int
  (** {!Vstamp_kvs.Stamped_kv.Make.digest} of the node's store, read in
      O(1): a 53-bit sum of per-key fingerprints over every key and
      every byte of its sorted candidates, stamps excluded.  Replicas
      that have converged report equal digests.  Exported as the
      [net_store_digest] gauge, which holds it exactly. *)

  val peers_json : t -> Vstamp_obs.Jsonx.t
  (** The [/peers.json] snapshot: node identity, bound port, store
      summary, and per-peer [state]/[attempts]/[rounds]/[backoff_s]/
      [last_error].  [state] is [connected] when the last round with
      the peer completed; [attempts] counts failed rounds in a row. *)

  val stop : t -> unit
  (** {!Vstamp_obs.Tcp.stop}: stop accepting, close the listening
      socket, join the dialers, then end every responder's read and
      join its thread.  Idempotent. *)
end
