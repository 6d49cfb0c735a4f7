(** A minimal JSON value type with a deterministic printer and a strict
    parser — just enough for machine-readable telemetry (JSONL events,
    metric snapshots, bench dumps) without an external dependency.

    The printer is canonical for a given value: no optional whitespace,
    object fields in the order given, floats rendered so that
    [of_string (to_string v)] recovers [v] exactly for finite floats.
    Integers and floats are distinct constructors; a float always prints
    with a ['.'] or an exponent so the distinction survives a round
    trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Finite floats only; NaN and infinities print as [null]. *)
  | String of string  (** UTF-8 bytes; control characters are escaped. *)
  | List of t list
  | Obj of (string * t) list  (** Field order is preserved. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Compact single-line rendering (never contains a newline). *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed); the error is a human-readable message with an offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] gives [n]; everything else [None]. *)

val to_float : t -> float option
(** [Float f] or [Int n] (as a float); everything else [None]. *)

val to_str : t -> string option

val to_bool : t -> bool option
