(** The TCP layer shared by {!Http_export} and the [vstamp-sync/2] node
    ([Vstamp_net.Node]): a listening socket with an accept thread and
    one thread per connection, a fixed connection cap, a prompt stop,
    and the one host-resolving client [connect].  {!listen} and
    {!connect} ignore SIGPIPE, so a peer hanging up surfaces as an
    [EPIPE] error, never as a dead process.  Every socket {!start}
    accepts or {!connect} opens has [TCP_NODELAY] set: both protocols
    write each message whole and then wait for the reply, so Nagle's
    algorithm could only delay a message's tail. *)

type t

val max_connections : int
(** [64]: the most connections served at once, and the listen backlog.
    A connection accepted beyond it is closed at once. *)

val listen : ?addr:string -> port:int -> unit -> t
(** Bind and listen on [addr] (default loopback) and [port] ([0] picks
    an ephemeral port — read it back with {!port}).
    @raise Unix.Unix_error when the bind fails. *)

val start : t -> timeout_s:float -> (Unix.file_descr -> unit) -> unit
(** Start the accept thread.  Each accepted connection gets send and
    receive timeouts of [timeout_s], [TCP_NODELAY] and its own thread
    running the handler; the socket is closed when the handler returns,
    and a [Unix_error] or [Sys_error] it raises ends the connection
    only. *)

val port : t -> int
(** The port actually bound. *)

val running : t -> bool
(** [false] once {!stop} has begun. *)

val stop : ?release:(unit -> unit) -> t -> unit
(** Stop accepting, wake and join the accept thread, close the
    listener, run [release] (the owner's own shutdown), then shut down
    the receive side of every live connection and join its thread.  A
    handler blocked in a read sees end of file at once, while its
    writes still go out.  Idempotent. *)

val connect :
  host:string -> port:int -> timeout_s:float -> (Unix.file_descr, string) result
(** A client socket connected to [host] (a literal address or a name to
    resolve) on [port], with send and receive timeouts of [timeout_s]
    and [TCP_NODELAY]. *)

val backoff_delay : int -> float
(** The wait after the [n]th failed connection attempt in a row
    ([n >= 1]): 0.2 s, doubling per attempt, capped at 5 s.  The one
    reconnect schedule of the node's dialers and the CLI's [--retry]. *)
