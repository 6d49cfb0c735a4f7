type t = {
  self : Version_vector.id;
  vv : Version_vector.t;
  retired : Version_vector.t;
      (* Final counter values of retired replicas still being tracked;
         an entry leaves once every live replica's vv dominates it, which
         the caller establishes via [compact]. *)
}

let create ~id = { self = id; vv = Version_vector.zero; retired = Version_vector.zero }

let id r = r.self

let vector r = r.vv

let update r = { r with vv = Version_vector.increment r.vv r.self }

let fork r ~new_id =
  (* the child starts with the parent's knowledge; its entry appears in
     vectors only at its first update — the Ratner-style lazy growth *)
  (r, { r with self = new_id })

let effective r = Version_vector.merge r.vv r.retired

let join a b ~survivor_id =
  {
    self = survivor_id;
    vv = Version_vector.merge a.vv b.vv;
    retired = Version_vector.merge a.retired b.retired;
  }

let retire r =
  (* the replica disappears; its counter becomes retirement baggage that
     some surviving replica must absorb *)
  { r with vv = Version_vector.zero; retired = effective r }

let absorb survivor departed =
  {
    survivor with
    vv = Version_vector.merge survivor.vv departed.vv;
    retired = Version_vector.merge survivor.retired departed.retired;
  }

let sync a b =
  let vv = Version_vector.merge a.vv b.vv in
  let retired = Version_vector.merge a.retired b.retired in
  ({ a with vv; retired }, { b with vv; retired })

let compact ~live r =
  (* drop retired entries that every live replica already dominates *)
  let retired =
    List.filter
      (fun (rid, c) ->
        not
          (List.for_all (fun other -> Version_vector.get other.vv rid >= c) live))
      (Version_vector.to_list r.retired)
    |> Version_vector.of_list
  in
  { r with retired }

let gc ~live r = compact ~live r

let retired_vector r = r.retired

let retired_entry_count r = Version_vector.entry_count r.retired

let relation a b = Version_vector.relation (effective a) (effective b)

let leq a b = Version_vector.leq (effective a) (effective b)

let entry_count r =
  Version_vector.entry_count r.vv + Version_vector.entry_count r.retired

let size_bits r =
  Version_vector.size_bits r.vv + Version_vector.size_bits r.retired

let pp ppf r =
  Format.fprintf ppf "r%d%a" r.self Version_vector.pp (effective r)
