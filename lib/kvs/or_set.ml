open Vstamp_vv

module Dot_map = Map.Make (struct
  type t = Dotted_vv.dot

  let compare = Dotted_vv.dot_compare
end)

module Dot_set = Set.Make (struct
  type t = Dotted_vv.dot

  let compare = Dotted_vv.dot_compare
end)

(* A causal context that can represent non-contiguous dot sets: the
   compact vector covers prefixes 1..n per replica, the cloud holds
   stragglers.  Deltas need this — the delta of a single add has seen
   exactly one dot, which no plain version vector can say. *)
module Ctx = struct
  type t = { vv : Version_vector.t; cloud : Dot_set.t }

  let empty = { vv = Version_vector.zero; cloud = Dot_set.empty }

  let covers c (d : Dotted_vv.dot) =
    Version_vector.get c.vv d.replica >= d.counter || Dot_set.mem d c.cloud

  let next c replica = Version_vector.get c.vv replica + 1

  (* fold cloud dots that have become contiguous into the vector *)
  let compact c =
    let rec go c =
      let promotable =
        Dot_set.filter
          (fun (d : Dotted_vv.dot) ->
            d.counter = Version_vector.get c.vv d.replica + 1)
          c.cloud
      in
      if Dot_set.is_empty promotable then c
      else
        go
          {
            vv =
              Dot_set.fold
                (fun (d : Dotted_vv.dot) vv ->
                  Version_vector.set vv d.replica
                    (max d.counter (Version_vector.get vv d.replica)))
                promotable c.vv;
            cloud = Dot_set.diff c.cloud promotable;
          }
    in
    let c = go c in
    { c with cloud = Dot_set.filter (fun d -> not (covers { c with cloud = Dot_set.empty } d)) c.cloud }

  let add c d = compact { c with cloud = Dot_set.add d c.cloud }

  let union a b =
    compact
      {
        vv = Version_vector.merge a.vv b.vv;
        cloud = Dot_set.union a.cloud b.cloud;
      }

  let of_dot d = add empty d
end

type 'a t = {
  replica : Version_vector.id;
  entries : 'a Dot_map.t;  (* live element instances, keyed by their dot *)
  ctx : Ctx.t;  (* every dot this replica has ever seen *)
}
(* The dot-kernel construction (the delta-CRDT foundation of Almeida,
   Shoker & Baquero): each add creates a uniquely dotted instance; a
   remove drops the instances it observed, and the causal context
   remembers them so a later join cannot reintroduce them.  Add wins
   over a concurrent remove because the fresh dot escapes the remover's
   context. *)

let create ~id = { replica = id; entries = Dot_map.empty; ctx = Ctx.empty }

let elements s =
  Dot_map.fold (fun _ v acc -> v :: acc) s.entries []
  |> List.sort_uniq compare

let mem s v = Dot_map.exists (fun _ v' -> v' = v) s.entries

let cardinal s = List.length (elements s)

let is_empty s = Dot_map.is_empty s.entries

let add s v =
  let dot = { Dotted_vv.replica = s.replica; counter = Ctx.next s.ctx s.replica } in
  { s with entries = Dot_map.add dot v s.entries; ctx = Ctx.add s.ctx dot }

let remove s v =
  { s with entries = Dot_map.filter (fun _ v' -> v' <> v) s.entries }

let clear s = { s with entries = Dot_map.empty }

(* Dot-kernel join: an instance survives iff both sides store it, or one
   stores it and the other has never seen its dot. *)
let merge a b =
  let keep mine other_entries other_ctx =
    Dot_map.filter
      (fun dot _ -> Dot_map.mem dot other_entries || not (Ctx.covers other_ctx dot))
      mine
  in
  let from_a = keep a.entries b.entries b.ctx in
  let from_b = keep b.entries a.entries a.ctx in
  {
    a with
    entries = Dot_map.union (fun _ v _ -> Some v) from_a from_b;
    ctx = Ctx.union a.ctx b.ctx;
  }

(* --- delta mutators: ship only what changed --- *)

let add_delta s v =
  let dot = { Dotted_vv.replica = s.replica; counter = Ctx.next s.ctx s.replica } in
  { replica = s.replica; entries = Dot_map.singleton dot v; ctx = Ctx.of_dot dot }

let remove_delta s v =
  (* the removed instances' dots as pure context: joining this delta
     kills them everywhere without shipping any entries *)
  let ctx =
    Dot_map.fold
      (fun d v' acc -> if v' = v then Ctx.add acc d else acc)
      s.entries Ctx.empty
  in
  { replica = s.replica; entries = Dot_map.empty; ctx }

let apply_delta s delta = { (merge s delta) with replica = s.replica }

let well_formed s = Dot_map.for_all (fun d _ -> Ctx.covers s.ctx d) s.entries
