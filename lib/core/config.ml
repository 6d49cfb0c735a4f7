module Smap = Map.Make (String)

exception Unknown_element of string

exception Clash of string

let find_or_raise elems name =
  match Smap.find_opt name elems with
  | Some v -> v
  | None -> raise (Unknown_element name)

let fresh_or_raise elems name =
  if Smap.mem name elems then raise (Clash name) else name

type t = { elems : Stamp.t Smap.t }

let initial name = { elems = Smap.singleton name Stamp.seed }

let of_list bindings =
  List.fold_left
    (fun acc (name, stamp) ->
      if Smap.mem name acc then raise (Clash name)
      else Smap.add name stamp acc)
    Smap.empty bindings
  |> fun elems -> { elems }

let names c = List.map fst (Smap.bindings c.elems)

let get c name = find_or_raise c.elems name

let mem c name = Smap.mem name c.elems

let size c = Smap.cardinal c.elems

(* Definition 4.3's transformations, with the paper's "element gets a
   new name" convention: each transformation consumes its operands and
   binds freshly named results. *)

let update c ~elem ~result =
  let stamp = find_or_raise c.elems elem in
  let base = Smap.remove elem c.elems in
  let result = fresh_or_raise base result in
  { elems = Smap.add result (Stamp.update stamp) base }

let fork c ~elem ~left ~right =
  if left = right then raise (Clash left);
  let stamp = find_or_raise c.elems elem in
  let base = Smap.remove elem c.elems in
  let left = fresh_or_raise base left in
  let right = fresh_or_raise base right in
  let l, r = Stamp.fork stamp in
  { elems = Smap.add right r (Smap.add left l base) }

let join c ~left ~right ~result =
  if left = right then raise (Clash left);
  let a = find_or_raise c.elems left in
  let b = find_or_raise c.elems right in
  let base = Smap.remove right (Smap.remove left c.elems) in
  let result = fresh_or_raise base result in
  { elems = Smap.add result (Stamp.join a b) base }

let sync c ~left ~right =
  let a = find_or_raise c.elems left in
  let b = find_or_raise c.elems right in
  let a', b' = Stamp.sync a b in
  { elems = Smap.add left a' (Smap.add right b' c.elems) }

let relation c x y = Stamp.relation (get c x) (get c y)

let frontier c = List.map snd (Smap.bindings c.elems)

let fold f c acc = Smap.fold (fun name s acc -> f name s acc) c.elems acc

let total_bits c = fold (fun _ s acc -> acc + Stamp.size_bits s) c 0

let pp ppf c =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (name, s) -> Format.fprintf ppf "%s %a" name Stamp.pp s))
    (Smap.bindings c.elems)
