(** The keyed name backends.

    A {e backend} bundles one {{!Name_intf.S} name implementation} with
    the {{!Stamp.S} stamp structure} built over it.  Layers above the
    core (codec, simulator trackers, KV store, CRDTs, CLI) are functors
    over this signature or look a backend up by key at run time,
    instead of pinning a concrete name module.

    The table is fixed.  It holds two backends, the ones [--backend]
    accepts:

    - ["tree"] — {!Name_tree}, plain binary tries (the default);
    - ["packed"] — {!Name_packed}, hash-consed tries with memoized
      operations (fastest on deep, shared structure).

    {!Over_list} bundles {!Name}, the sorted-list executable
    specification, the same way.  It is not in the table: the tests
    compare the keyed backends against it, and the simulator runs it as
    the ["stamps-list"] tracker. *)

module type S = sig
  module Name : Name_intf.S

  module Stamp : Stamp.S with type name = Name.t

  (** {2 The trie view}

      Every name is an antichain, and every antichain has one canonical
      binary trie, {!Name_tree.t}.  The wire codec reads and writes
      names through this view.  It is the identity for ["tree"], a
      node-for-node walk for ["packed"], and a round trip through the
      member list for {!Over_list}. *)

  val to_trie : Name.t -> Name_tree.t
  (** The canonical trie of a name. *)

  val of_trie : Name_tree.t -> Name.t
  (** The name of a well-formed trie: [of_trie (to_trie n)] equals [n]. *)
end

(** {1 The table} *)

type entry = { key : string; impl : (module S) }

val find : string -> (module S) option

val get : string -> (module S)
(** @raise Invalid_argument on unknown keys, listing the valid set. *)

val keys : unit -> string list
(** The keys, sorted. *)

val entries : unit -> entry list
(** The entries in key order. *)

val default_key : string
(** ["tree"]. *)

(** {1 The backends} *)

module Over_tree : S with module Name = Name_tree and module Stamp = Stamp.Over_tree

module Over_list : S with module Name = Name and module Stamp = Stamp.Over_list
(** The sorted-list specification; not in the table. *)

module Over_packed :
  S with module Name = Name_packed and module Stamp = Stamp.Over_packed
