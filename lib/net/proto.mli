(** The [vstamp-sync/2] message layer (one message per frame).

    A tag byte, then varint-length-prefixed fields.  Stamps travel as
    opaque strings (the canonical {!Vstamp_codec.Wire} encoding, byte-
    identical across name backends), so the layer is backend-agnostic.
    {!decode} is total: truncated fields, absurd counts or bit-flipped
    tags return [Error], never raise.  See [doc/protocol.md] for the
    frame grammar and session state machine. *)

val version : int
(** The protocol version this build speaks: [2].  Version 1 shipped
    every [Result] entry with its values; a version-1 peer would store
    a stamp-only entry as an empty register, so it is refused at the
    handshake. *)

val magic : string
(** ["vstamp-sync/"] followed by {!version}, carried in every handshake
    frame. *)

type hello = { node_id : string; backend : string; proto : int }

type msg =
  | Hello of hello  (** Initiator's opening frame. *)
  | Hello_ack of hello  (** Responder's acceptance. *)
  | Offer of string * (string * string * string) list
      (** Trace header + frontier: (key, stamp, digest) per entry. *)
  | Want of string list  (** Keys whose full entries are needed. *)
  | Items of (string * string * string list) list
      (** Full entries: (key, stamp, values). *)
  | Result of (string * string * string list) list
      (** The initiator's halves, same shape as [Items]; an empty value
          list is a stamp-only half
          ({!Vstamp_kvs.Stamped_kv.Make.reconcile}). *)
  | Bye  (** Polite end of session. *)

val encode : msg -> string

val decode : string -> (msg, string) result
(** Total: any byte string decodes to a message or an [Error] naming
    the defect.  Trailing garbage after a well-formed message is an
    error too (one frame carries exactly one message). *)
