(** Named configurations — the paper's presentation style, executable.

    Definitions 2.1 and 4.3 present the transformations on configurations
    that map {e element names} to stamps, where every operation consumes
    its operands and binds freshly named results ([a] becomes [a'] after
    an update, [fork a] yields [b] and [c], ...).  This module is that
    presentation: useful for writing paper-style derivations in tests,
    examples and documentation, where {!Execution} addresses elements
    positionally for random-trace replay instead.

    Names are arbitrary strings, unique within the configuration.  The
    stamps are the default (tree) backend's. *)

exception Unknown_element of string
(** Raised when an operand name is not bound. *)

exception Clash of string
(** Raised when a result name is already bound (or two result names
    coincide). *)

type t
(** A configuration: a finite map from element names to stamps. *)

val initial : string -> t
(** One seed element with the given name. *)

val of_list : (string * Stamp.t) list -> t
(** Explicit configuration.  @raise Clash on duplicate names. *)

val names : t -> string list

val get : t -> string -> Stamp.t
(** @raise Unknown_element *)

val mem : t -> string -> bool

val size : t -> int

val update : t -> elem:string -> result:string -> t
(** [update c ~elem:"a" ~result:"a'"] — Definition 4.3's
    [update(a)].  [result] may equal [elem].
    @raise Unknown_element or Clash *)

val fork : t -> elem:string -> left:string -> right:string -> t
(** Definition 4.3's [fork(a)]; one result may reuse [elem]'s name.
    @raise Unknown_element or Clash *)

val join : t -> left:string -> right:string -> result:string -> t
(** Definition 4.3's [join(a, b)]; [result] may reuse either operand
    name.  @raise Unknown_element or Clash *)

val sync : t -> left:string -> right:string -> t
(** Synchronization keeping both names alive: join then fork, the left
    result staying under [left]. *)

val relation : t -> string -> string -> Relation.t
(** Frontier relation of two named elements.  @raise Unknown_element *)

val frontier : t -> Stamp.t list
(** The stamps, for {!Invariants} and {!Frontier} queries. *)

val fold : (string -> Stamp.t -> 'a -> 'a) -> t -> 'a -> 'a

val total_bits : t -> int

val pp : Format.formatter -> t -> unit
