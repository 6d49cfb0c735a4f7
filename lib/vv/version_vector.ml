module Imap = Map.Make (Int)
open Vstamp_core

type id = int

type t = int Imap.t
(* Invariant: no zero entries are stored, so structural equality of maps
   coincides with vector equality under the missing-entry-is-zero
   convention. *)

let zero = Imap.empty

let get t id = match Imap.find_opt id t with Some c -> c | None -> 0

let set t id c =
  if c < 0 then invalid_arg "Version_vector.set: negative counter"
  else if c = 0 then Imap.remove id t
  else Imap.add id c t

let increment t id = Imap.add id (get t id + 1) t

let of_list entries = List.fold_left (fun acc (i, c) -> set acc i c) zero entries

let to_list t = Imap.bindings t

let entry_count t = Imap.cardinal t

let total_events t = Imap.fold (fun _ c acc -> acc + c) t 0

(* Wire-size estimate in bits: each stored entry pays its id and its
   counter, both as minimal-width binary numbers (at least one bit). *)
let bits_for n = if n <= 1 then 1 else
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let size_bits t =
  Imap.fold (fun id c acc -> acc + bits_for id + bits_for c) t 0

let equal = Imap.equal Int.equal

let leq a b = Imap.for_all (fun id c -> c <= get b id) a

let relation a b = Relation.of_leq_pair ~leq_ab:(leq a b) ~leq_ba:(leq b a)

let merge a b = Imap.union (fun _ ca cb -> Some (max ca cb)) a b

let dominated_by_merge x vs = leq x (List.fold_left merge zero vs)

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       (fun ppf (id, c) -> Format.fprintf ppf "%d:%d" id c))
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

(* A replica owning a vector: the paper's Figure 1 setting. *)
module Replica = struct
  type nonrec t = { self : id; vv : t }

  let create ~id = { self = id; vv = zero }

  let id r = r.self

  let vector r = r.vv

  let update r = { r with vv = increment r.vv r.self }

  let sync a b =
    let merged = merge a.vv b.vv in
    ({ a with vv = merged }, { b with vv = merged })

  let relation a b = relation a.vv b.vv

  let pp ppf r = Format.fprintf ppf "r%d%a" r.self pp r.vv
end
