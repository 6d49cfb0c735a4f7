type t = { seed : int; epoch : int; severity : float }

let make ?(seed = 0) ?(epoch = 8) ~severity () =
  if not (severity >= 0. && severity <= 1.) then
    invalid_arg "Weather.make: severity must be in [0, 1]";
  if epoch < 1 then invalid_arg "Weather.make: epoch must be >= 1";
  { seed; epoch; severity }

let groups_at t ~step ~n =
  if n <= 0 then [||]
  else begin
    let era = step / t.epoch in
    (* one generator per (weather, era): the grouping holds for the
       whole epoch and changes when the era ticks over *)
    let rng = ref (Rng.make ((t.seed * 1_000_003) + era)) in
    let draw bound =
      let v, rng' = Rng.int !rng bound in
      rng := rng';
      v
    in
    (* expected fragmentation scales with severity: at 0 there is one
       group, at 1 as many candidate groups as replicas.  Each replica
       draws its group independently, so sizes are unequal and some
       candidate groups stay empty — the partition is asymmetric and
       its effective group count varies epoch to epoch. *)
    let candidates =
      1 + int_of_float (Float.round (t.severity *. float_of_int (n - 1)))
    in
    Array.init n (fun _ -> if candidates <= 1 then 0 else draw candidates)
  end

let allowed t ~step ~n i j =
  i = j
  ||
  let g = groups_at t ~step ~n in
  i >= 0 && j >= 0 && i < n && j < n && g.(i) = g.(j)

let group_count t ~step ~n =
  let g = groups_at t ~step ~n in
  let seen = Hashtbl.create 8 in
  Array.iter (fun x -> Hashtbl.replace seen x ()) g;
  Hashtbl.length seen
