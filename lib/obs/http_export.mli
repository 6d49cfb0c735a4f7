(** Embedded telemetry server: live introspection of a running process.

    A background-thread HTTP/1.1 listener (Unix sockets and [Thread]
    only — no web framework) that exposes the observability state the
    rest of [vstamp.obs] accumulates:

    - [GET /metrics] — Prometheus text exposition of the registry
      ({!Registry.to_prometheus}), scrapeable by a stock Prometheus;
    - [GET /healthz] — one JSON object: status, uptime, request and
      event totals, the summed invariant-violation counters, plus any
      fields the embedding process adds via its [health] callback
      (the soak driver reports its last-step watermark here);
    - [GET /stats.json] — the full registry snapshot
      ({!Registry.to_json}), the input to {!Registry.diff} and the
      [vstamp top] dashboard;
    - [GET /lag.json] — the convergence view of the registry
      ({!Convergence.lag_json}): per-replica lag, divergence-pair
      counts, frontier width/entropy, convergence timing and the
      sync-delta accounting totals;
    - [GET /idspace.json] — the identity-space view of the registry
      ({!Idspace.view_json}): the [vstamp_idspace_*] families — live
      replicas, fragment counts, id bits vs the oracle minimum,
      fragmentation entropy, audit-violation count and the fork/join/
      retire op totals — as published by the churn scenario;
    - [GET /range.json] — the flight-recorder query endpoint (requires
      a {!Tsdb.t} passed to {!create}): with [?metric=NAME] the rolled
      -up history of one series over [?from=]/[?to=] (unix seconds, or
      negative offsets relative to now; default the last 5 minutes) in
      [?step=]-second buckets; without [metric], the series index and
      store statistics;
    - [GET /alerts.json] — the alert engine's state ({!Alert.to_json}:
      per-rule state, values and the firing/resolved timeline;
      requires an {!Alert.t} passed to {!create});
    - [GET /events] — chunked streaming of the live event feed: the
      ring of recent events first, then every event published through
      {!event_sink} as it happens, one JSONL line per chunk;
    - [GET /events.json] — the ring of recent events as a JSON array
      ([?n=N] limits to the newest N);
    - [GET /cluster.json] — the federation roll-up (requires a
      [cluster] callback passed to {!create}; 404 otherwise): the
      multi-process soak parent serves {!Cluster.collect} here;
    - [GET /peers.json] — the peer-lifecycle snapshot of a networked
      [vstamp serve] node (requires a [peers] callback passed to
      {!create}; 404 otherwise): per-peer connection state, reconnect
      attempts and sync-round counts.

    [HEAD] is answered for every endpoint with the headers the
    corresponding [GET] would send and no body; any other method gets
    [405 Method Not Allowed] with an [Allow: GET, HEAD] header.

    Each connection is served by its own thread on a {!Tcp} server, so
    concurrent scrapes do not block one another or the embedding
    process.  At most {!Tcp.max_connections} are served at once; a
    connection beyond that is closed unanswered.  A client gets 10 s
    to send its request and to take each write of the response.
    {!stop} is graceful and prompt: in-flight responses finish,
    streaming clients get a terminating chunk, a client still sending
    its request is cut off, and all threads are joined. *)

type t

val create :
  ?registry:Registry.t ->
  ?health:(unit -> (string * Jsonx.t) list) ->
  ?tsdb:Tsdb.t ->
  ?alerts:Alert.t ->
  ?cluster:(unit -> Jsonx.t) ->
  ?peers:(unit -> Jsonx.t) ->
  ?recent:int ->
  ?addr:string ->
  port:int ->
  unit ->
  t
(** Bind [addr] (default loopback) on [port] ([0] picks an ephemeral
    port — read it back with {!port}) and start the accept thread.
    [registry] defaults to {!Registry.default}; [health] contributes
    extra [/healthz] fields; [tsdb]/[alerts] enable [/range.json] and
    [/alerts.json] (404 otherwise); [cluster] enables [/cluster.json]
    — it runs in the connection thread on every hit, so a fan-out
    roll-up never blocks the embedding process; [peers] enables
    [/peers.json]; [recent] is the event-ring capacity (default 64).

    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port (useful after [~port:0]). *)

val event_sink : t -> Sink.t
(** A sink that fans events out to every connected [/events] client
    and into the recent-events ring.  Tee it with a file sink to both
    persist and stream ({!Sink.tee}). *)

val recent_events : t -> Event.t list
(** The ring contents, oldest first. *)

val requests : t -> int
(** Requests served so far. *)

val running : t -> bool

val stop : t -> unit
(** Graceful shutdown; idempotent.  Joins the accept thread and every
    connection thread. *)

(** {1 A minimal HTTP client}

    Enough of HTTP/1.1 to scrape the server above (and anything as
    simple): one GET, [Connection: close], chunked decoding.  Used by
    [vstamp top] and the serve smoke tests. *)

module Client : sig
  val request :
    ?host:string ->
    ?timeout_s:float ->
    ?meth:string ->
    port:int ->
    string ->
    (int * (string * string) list * string, string) result
  (** [request ~port path]: status code, response headers (names
      lowercased, values trimmed) and (de-chunked) body.  [host]
      defaults to loopback, [meth] to ["GET"], and [timeout_s] — the
      socket send/receive timeout, so a stalled endpoint surfaces as
      an [Error] instead of hanging the caller — to 5 seconds. *)

  val get :
    ?host:string ->
    ?timeout_s:float ->
    port:int ->
    string ->
    (int * string, string) result
  (** {!request} without the headers. *)
end
