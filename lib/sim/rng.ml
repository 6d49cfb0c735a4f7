type t = { state : int64 }

let golden = 0x9E3779B97F4A7C15L

let make seed = { state = Int64.of_int seed }

let of_int64 state = { state }

(* splitmix64: one 64-bit multiply-xorshift round per draw *)
let next t =
  let open Int64 in
  let s = add t.state golden in
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (logxor z (shift_right_logical z 31), { state = s })

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw, t = next t in
  (* keep 62 bits so the value fits OCaml's native int non-negatively *)
  (Int64.to_int (Int64.shift_right_logical raw 2) mod bound, t)

let float t =
  let raw, t = next t in
  (Int64.to_float (Int64.shift_right_logical raw 11) /. 9007199254740992.0, t)

let below t p =
  let x, t = float t in
  (x < p, t)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs ->
      let i, t = int t (List.length xs) in
      (List.nth xs i, t)

let pick_weighted t = function
  | [] -> invalid_arg "Rng.pick_weighted: empty list"
  | choices ->
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
      if total <= 0 then invalid_arg "Rng.pick_weighted: non-positive total";
      let roll, t = int t total in
      let rec go acc = function
        | [] -> assert false
        | (w, x) :: rest -> if roll < acc + w then (x, t) else go (acc + w) rest
      in
      go 0 choices

let split t =
  let a, t = next t in
  (of_int64 a, t)

let shuffle t xs =
  let arr = Array.of_list xs in
  let t = ref t in
  for i = Array.length arr - 1 downto 1 do
    let j, t' = int !t (i + 1) in
    t := t';
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  (Array.to_list arr, !t)
