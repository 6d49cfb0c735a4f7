module Event_set = Set.Make (Int)

type event = int

type t = Event_set.t

let empty = Event_set.empty

let of_events = Event_set.of_list

let events h = Event_set.elements h

let add_event = Event_set.add

let union = Event_set.union

let cardinal = Event_set.cardinal

let subset = Event_set.subset

let equal = Event_set.equal

let subset_of_union x hs =
  let combined = List.fold_left union empty hs in
  subset x combined

let relation a b =
  Relation.of_leq_pair ~leq_ab:(subset a b) ~leq_ba:(subset b a)

let pp ppf h =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (events h)

(* The "global view": a monotone counter handing out globally unique
   update-event identities.  Threaded explicitly so executions are pure
   and reproducible. *)
module Gen = struct
  type nonrec t = { next : int }

  let initial = { next = 0 }

  let fresh g = (g.next, { next = g.next + 1 })

  let issued g = g.next
end
