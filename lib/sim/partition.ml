open Vstamp_core

type t = int list
(* Group of each frontier position, mirrored through the positional
   semantics of {!Execution}. *)

let initial = [ 0 ]

let of_groups gs = gs

let groups t = t

let group_of t i = List.nth t i

let size = List.length

let apply t op =
  match op with
  | Execution.Update _ -> t
  | Execution.Fork i ->
      (* the child replica is born where its parent lives *)
      let g = List.nth t i in
      Execution.fork_positions t i ~left:g ~right:g
  | Execution.Join (i, j) ->
      Execution.join_positions t i j ~merged:(List.nth t i)

let positions_in t g =
  List.mapi (fun i g' -> (i, g')) t
  |> List.filter_map (fun (i, g') -> if g = g' then Some i else None)

let same_group t i j = group_of t i = group_of t j

let op_allowed t = function
  | Execution.Update _ | Execution.Fork _ -> true
  | Execution.Join (i, j) -> same_group t i j

let regroup t assignment =
  if List.length assignment <> List.length t then
    invalid_arg "Partition.regroup: arity mismatch"
  else assignment

let round_robin ~groups n =
  if groups <= 0 then invalid_arg "Partition.round_robin: groups must be positive";
  List.init n (fun i -> i mod groups)

let merge_all t = List.map (fun _ -> 0) t

let group_count t = List.length (List.sort_uniq compare t)
