(** First-class registry of name backends.

    A {e backend} bundles one {{!Name_intf.S} name implementation} with
    the {{!Stamp.S} stamp structure} built over it.  Layers above the
    core (codec, simulator trackers, KV store, CRDTs, CLI) are functors
    over this signature or consult the registry at run time, instead of
    pinning a concrete name module.

    Two backends register themselves when the library is linked:

    - ["tree"] — {!Name_tree}, plain binary tries (the default);
    - ["packed"] — {!Name_packed}, hash-consed tries with memoized
      operations (fastest on deep, shared structure).

    {!Over_list} bundles {!Name}, the sorted-list executable
    specification, the same way.  It is not registered: the tests
    compare the registered backends against it, and the simulator
    runs it as the ["stamps-list"] tracker.

    Register additional implementations with {!register}, typically by
    applying {!Of_name}. *)

module type S = sig
  module Name : Name_intf.S

  module Stamp : Stamp.S with type name = Name.t

  (** {2 The trie view}

      Every name is an antichain, and every antichain has one canonical
      binary trie, {!Name_tree.t}.  The wire codec reads and writes
      names through this view.  It is the identity for ["tree"], a
      node-for-node walk for ["packed"], and a round trip through the
      member list for {!Over_list} and for backends built with
      {!Of_name}. *)

  val to_trie : Name.t -> Name_tree.t
  (** The canonical trie of a name. *)

  val of_trie : Name_tree.t -> Name.t
  (** The name of a well-formed trie: [of_trie (to_trie n)] equals [n]. *)
end

(** {1 Registry} *)

type entry = { key : string; doc : string; impl : (module S) }

val register : key:string -> ?doc:string -> (module S) -> unit
(** Add a backend under a stable key.
    @raise Invalid_argument if the key is already taken. *)

val find : string -> (module S) option

val get : string -> (module S)
(** @raise Invalid_argument on unknown keys, listing the valid set. *)

val find_entry : string -> entry option

val keys : unit -> string list
(** Registered keys, sorted. *)

val entries : unit -> entry list
(** Registered entries in key order. *)

val default_key : string
(** ["tree"]. *)

val default : (module S)

(** {1 The in-tree backends} *)

module Over_tree : S with module Name = Name_tree and module Stamp = Stamp.Over_tree

module Over_list : S with module Name = Name and module Stamp = Stamp.Over_list
(** The sorted-list specification; not registered. *)

module Over_packed :
  S with module Name = Name_packed and module Stamp = Stamp.Over_packed

(** {1 Building new backends} *)

module Of_name (N : Name_intf.S) :
  S with module Name = N and type Stamp.t = Stamp.Make(N).t
(** Wrap any name implementation into a backend by applying
    {!Stamp.Make}; pass the result to {!register} to make it reachable
    from the CLI and smoke tooling.  Its trie view goes through
    [N.to_list] and [N.of_list]. *)
