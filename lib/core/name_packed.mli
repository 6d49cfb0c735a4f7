(** Names as hash-consed binary tries — the high-performance backend.

    Shape-identical to {!Name_tree}, but every node is interned in a
    weak table so structural equality coincides with physical equality.
    [equal] is a pointer comparison, size metrics are cached per node and
    read in O(1), and [leq] / [join] / [meet] / [reduce_stamp] memoize on
    interned node ids — deep tries shared across a forking fleet are
    traversed once, then answered from the table.

    Values are immutable and canonical: two names built by any sequence
    of operations are physically equal iff they denote the same
    antichain.  Interning tables are global to the process; nodes are
    held weakly and reclaimed when no live name references them.

    Cross-validated against the {!Name} list specification by the qcheck
    agreement suite ([test/test_name_packed.ml]). *)

include Name_intf.S

(** {1 The canonical trie} *)

val to_trie : t -> Name_tree.t
(** The same antichain as a plain {!Name_tree} trie, node for node. *)

val of_trie : Name_tree.t -> t
(** Intern a plain trie node by node.  Inverse of {!to_trie} on
    well-formed tries. *)

(** {1 Hash-consing introspection} *)

val tag : t -> int
(** The unique interning id of this node.  [tag a = tag b] iff [a == b]
    iff [equal a b].  Not stable across runs (or across garbage
    collections of dead nodes). *)

val interned_count : unit -> int
(** Number of live interned nodes, for tests and diagnostics. *)
