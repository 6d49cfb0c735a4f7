(** The content oracle: the benchmark's own model of what every node
    must return for every key, compared value by value.

    [Node.digest] is deliberately not used: its [Hashtbl.hash] stops
    after a few list entries, so two stores that differ late in key
    order report equal digests. *)

type t

type mismatch = { node : int; key : string; expected : string list; got : string list }

val create : unit -> t

val set : t -> string -> string list -> unit
(** Expect exactly these candidates for a key. *)

val expected : t -> string -> string list
(** Sorted candidates; [[]] for a key the model does not hold. *)

val apply_writes : t -> (string * string) list -> unit
(** One op's [(key, value)] writes, made on converged replicas: each
    written key ends with exactly the values written to it. *)

val keys : t -> string list
(** Sorted. *)

val check_keys :
  t -> nodes:int -> get:(int -> string -> string list) -> string list -> mismatch list
(** Compare these keys' sorted candidates on nodes [0 .. nodes-1]. *)

val check_full :
  t ->
  nodes:int ->
  node_keys:(int -> string list) ->
  get:(int -> string -> string list) ->
  mismatch list
(** Every model key on every node, plus any key a node holds that the
    model does not. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
