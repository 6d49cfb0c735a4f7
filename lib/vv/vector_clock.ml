open Vstamp_core

type t = { self : Version_vector.id; clock : Version_vector.t }

let create ~id = { self = id; clock = Version_vector.zero }

let clock t = t.clock

let tick t = { t with clock = Version_vector.increment t.clock t.self }

let send t =
  let t = tick t in
  (t, t.clock)

let receive t msg =
  { t with clock = Version_vector.increment (Version_vector.merge t.clock msg) t.self }

let leq a b = Version_vector.leq a b

let happened_before a b = leq a b && not (Version_vector.equal a b)

let concurrent a b = (not (leq a b)) && not (leq b a)

let relation a b = Relation.of_leq_pair ~leq_ab:(leq a b) ~leq_ba:(leq b a)
