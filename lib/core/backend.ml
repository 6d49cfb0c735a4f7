(* First-class registry of name backends.

   Every layer that used to pin a concrete name module (codec, sim
   trackers, CLI) goes through this seam instead: a backend bundles a
   name implementation with the stamp structure built over it, keyed by
   a stable string.  The tree and packed implementations register
   themselves at module initialization; third parties add theirs with
   [register] (typically via [Of_name]).  The list specification is
   built the same way but left out of the registry. *)

module type S = sig
  module Name : Name_intf.S

  module Stamp : Stamp.S with type name = Name.t

  val to_trie : Name.t -> Name_tree.t

  val of_trie : Name_tree.t -> Name.t
end

type entry = { key : string; doc : string; impl : (module S) }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 8

let register ~key ?(doc = "") impl =
  if Hashtbl.mem registry key then
    invalid_arg (Printf.sprintf "Backend.register: key %S already taken" key);
  Hashtbl.replace registry key { key; doc; impl }

let find key =
  match Hashtbl.find_opt registry key with
  | Some e -> Some e.impl
  | None -> None

let find_entry key = Hashtbl.find_opt registry key

let keys () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort String.compare

let entries () =
  List.filter_map (fun k -> Hashtbl.find_opt registry k) (keys ())

(* The trie view of a backend that keeps no trie: a round trip through
   the member list. *)
module Members_view (N : Name_intf.S) = struct
  let to_trie n = Name_tree.of_list (N.to_list n)

  let of_trie t = N.of_list (Name_tree.to_list t)
end

(* --- the in-tree backends --- *)

(* These reuse the existing [Stamp.Over_*] modules rather than applying
   [Stamp.Make] afresh, so the registry's stamp types are equal to the
   ones the rest of the tree already names. *)

module Over_tree = struct
  module Name = Name_tree
  module Stamp = Stamp.Over_tree

  let to_trie n = n

  let of_trie n = n
end

module Over_list = struct
  module Name = Name
  module Stamp = Stamp.Over_list
  include Members_view (Name)
end

module Over_packed = struct
  module Name = Name_packed
  module Stamp = Stamp.Over_packed

  let to_trie = Name_packed.to_trie

  let of_trie = Name_packed.of_trie
end

let default_key = "tree"

let () =
  register ~key:"tree" ~doc:"binary tries (default)" (module Over_tree);
  register ~key:"packed"
    ~doc:"hash-consed tries with memoized leq/join/reduce"
    (module Over_packed)

let default = (module Over_tree : S)

let get key =
  match find key with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backend.get: unknown backend %S (valid: %s)" key
           (String.concat ", " (keys ())))

module Of_name (N : Name_intf.S) = struct
  module Name = N
  module Stamp = Stamp.Make (N)
  include Members_view (N)
end
