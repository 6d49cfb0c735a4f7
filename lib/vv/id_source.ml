type error = [ `Unavailable ]

type policy =
  | Central
  | Partitioned of { server_group : int }
  | Random of { bits : int }

type t = {
  policy : policy;
  next : int;
  issued : int list;
  collisions : int;
  failures : int;
  rng : int64;
}

let make ?(seed = 0x9E3779B97F4A7C15L) policy =
  { policy; next = 0; issued = []; collisions = 0; failures = 0; rng = seed }

(* splitmix64 step, enough for the probabilistic-id model *)
let next_rng state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z' = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z'' = mul (logxor z' (shift_right_logical z' 27)) 0x94D049BB133111EBL in
  (logxor z'' (shift_right_logical z'' 31), z)

let alloc ?(group = 0) t =
  match t.policy with
  | Central ->
      Ok (t.next, { t with next = t.next + 1; issued = t.next :: t.issued })
  | Partitioned { server_group } ->
      if group = server_group then
        Ok (t.next, { t with next = t.next + 1; issued = t.next :: t.issued })
      else Error (`Unavailable, { t with failures = t.failures + 1 })
  | Random { bits } ->
      let raw, rng = next_rng t.rng in
      let mask = if bits >= 62 then max_int else (1 lsl bits) - 1 in
      let id = Int64.to_int raw land mask in
      let collisions =
        if List.mem id t.issued then t.collisions + 1 else t.collisions
      in
      Ok (id, { t with rng; issued = id :: t.issued; collisions })

let issued_count t = List.length t.issued

let collisions t = t.collisions

let failures t = t.failures

let pp_policy ppf = function
  | Central -> Format.pp_print_string ppf "central"
  | Partitioned { server_group } ->
      Format.fprintf ppf "partitioned(server in group %d)" server_group
  | Random { bits } -> Format.fprintf ppf "random(%d bits)" bits
