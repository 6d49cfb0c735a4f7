(* The keyed name backends.

   Every layer that used to pin a concrete name module (codec, sim
   trackers, CLI) goes through this seam instead: a backend bundles a
   name implementation with the stamp structure built over it, keyed by
   a stable string.  The table holds the tree and packed
   implementations; the list specification is built the same way but
   left out of it. *)

module type S = sig
  module Name : Name_intf.S

  module Stamp : Stamp.S with type name = Name.t

  val to_trie : Name.t -> Name_tree.t

  val of_trie : Name_tree.t -> Name.t
end

type entry = { key : string; impl : (module S) }

(* These reuse the existing [Stamp.Over_*] modules rather than applying
   [Stamp.Make] afresh, so the table's stamp types are equal to the
   ones the rest of the tree already names. *)

module Over_tree = struct
  module Name = Name_tree
  module Stamp = Stamp.Over_tree

  let to_trie n = n

  let of_trie n = n
end

(* The list specification keeps no trie: its view is a round trip
   through the member list. *)
module Over_list = struct
  module Name = Name
  module Stamp = Stamp.Over_list

  let to_trie n = Name_tree.of_list (Name.to_list n)

  let of_trie t = Name.of_list (Name_tree.to_list t)
end

module Over_packed = struct
  module Name = Name_packed
  module Stamp = Stamp.Over_packed

  let to_trie = Name_packed.to_trie

  let of_trie = Name_packed.of_trie
end

let default_key = "tree"

(* In key order. *)
let table =
  [
    { key = "packed"; impl = (module Over_packed : S) };
    { key = "tree"; impl = (module Over_tree : S) };
  ]

let entries () = table

let keys () = List.map (fun e -> e.key) table

let find key =
  List.find_map (fun e -> if String.equal e.key key then Some e.impl else None)
    table

let get key =
  match find key with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backend.get: unknown backend %S (valid: %s)" key
           (String.concat ", " (keys ())))
