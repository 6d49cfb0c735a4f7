let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the [rank]-th smallest sample is the first with at
   least a share [p] of all samples at or below it.  The epsilon keeps
   [0.9 *. 100.] from rounding up to rank 91. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile ~p xs =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~p (Array.length a) - 1)

let beyond ~p n = n - rank ~p n

let tail_percentile ~p xs =
  let n = List.length xs in
  if n = 0 then Error "no samples"
  else if beyond ~p n < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; at least %d needed"
         (100. *. p) n (beyond ~p n) min_beyond)
  else Ok (percentile ~p xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs
