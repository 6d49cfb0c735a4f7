(** Where events go: nowhere, memory, a channel as JSONL, a callback, or
    several places at once. *)

type t

val null : t
(** Drops everything. *)

val memory : unit -> t
(** Buffers events in order; read them back with {!contents}. *)

val contents : t -> Event.t list
(** Events of a {!memory} sink, oldest first; [[]] for other sinks
    (including a {!tee} of memory sinks — read the children). *)

val to_file : string -> t
(** Open (truncate) a file for JSONL output; {!close} closes it.

    Durability: the sink registers an [at_exit] hook that flushes and
    [Unix.fsync]s the file, so a process
    that exits or dies on an uncaught exception does not truncate the
    stream mid-line.  Signal deaths bypass [at_exit]; long-running
    drivers should install handlers that call {!flush} or {!close}
    (the [vstamp soak] driver does). *)

val of_fn : (Event.t -> unit) -> t
(** Every event goes to the callback — the hook for live subscribers
    such as {!Http_export.event_sink}. *)

val tee : t -> t -> t
(** Events go to both sinks (each child's {!emitted} count advances).
    {!flush} and {!close} apply to both children. *)

val emit : t -> Event.t -> unit

val emitted : t -> int
(** Events accepted so far (including by [null]). *)

val flush : t -> unit
(** Push buffered output to the OS (and disk, for a {!to_file}
    sink).  No-op for memory and null sinks. *)

val close : t -> unit
