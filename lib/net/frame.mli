(** [vstamp-sync/2] framing: 4-byte big-endian length + payload.

    The length cap ({!max_payload}) bounds what a corrupted or hostile
    peer can make the process allocate; frames announcing more are a
    protocol error.  {!encode}/{!decode} are pure — the fuzz tests
    drive them directly — while {!read}/{!write} wrap a connected
    socket with EINTR-safe blocking IO. *)

val header_len : int
(** 4. *)

val max_payload : int
(** 16 MiB. *)

type error =
  | Truncated  (** Input ended inside a header or announced payload. *)
  | Oversized of int  (** Announced length beyond {!max_payload}. *)
  | Io of string  (** Socket-level failure (reset, timeout, ...). *)

val pp_error : Format.formatter -> error -> unit

val encode : string -> string
(** Frame a payload.
    @raise Invalid_argument beyond {!max_payload}. *)

val decode : string -> (string * int, error) result
(** Decode one frame off the head of a buffer: the payload and the
    bytes consumed. *)

val write : Unix.file_descr -> string -> (int, error) result
(** Frame and send a payload; returns the wire bytes written. *)

val read : Unix.file_descr -> ((string * int) option, error) result
(** One frame off the wire: [Ok (Some (payload, wire_bytes))], or
    [Ok None] on a clean EOF at a frame boundary.  A peer dying inside
    a frame is [Error Truncated]. *)
