open Vstamp_core

type t = { entries : int array; total : int }
(* [entries.(k)] sums the updates of all replicas with [id mod r = k];
   [total] is the sum of all entries, the Lamport-style tiebreaker the
   REV construction carries. *)

let create ~size =
  if size <= 0 then invalid_arg "Plausible_clock.create: size must be positive";
  { entries = Array.make size 0; total = 0 }

let size t = Array.length t.entries

let slot t ~id =
  let r = Array.length t.entries in
  ((id mod r) + r) mod r

let get t k = t.entries.(k)

let increment t ~id =
  let entries = Array.copy t.entries in
  let k = slot t ~id in
  entries.(k) <- entries.(k) + 1;
  { entries; total = t.total + 1 }

let merge a b =
  if Array.length a.entries <> Array.length b.entries then
    invalid_arg "Plausible_clock.merge: size mismatch";
  let entries = Array.mapi (fun i c -> max c b.entries.(i)) a.entries in
  { entries; total = Array.fold_left ( + ) 0 entries }

let leq a b =
  if Array.length a.entries <> Array.length b.entries then
    invalid_arg "Plausible_clock.leq: size mismatch";
  let ok = ref true in
  Array.iteri (fun i c -> if c > b.entries.(i) then ok := false) a.entries;
  !ok

let relation a b = Relation.of_leq_pair ~leq_ab:(leq a b) ~leq_ba:(leq b a)

let size_bits t =
  Array.fold_left
    (fun acc c -> acc + Version_vector.bits_for c)
    0 t.entries

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list t.entries)
