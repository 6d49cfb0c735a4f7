type op = Update of int | Fork of int | Join of int * int

let pp_op ppf = function
  | Update i -> Format.fprintf ppf "update(%d)" i
  | Fork i -> Format.fprintf ppf "fork(%d)" i
  | Join (i, j) -> Format.fprintf ppf "join(%d,%d)" i j

let op_to_string op = Format.asprintf "%a" pp_op op

let size_delta = function Update _ -> 0 | Fork _ -> 1 | Join _ -> -1

let op_valid ~frontier_size = function
  | Update i | Fork i -> 0 <= i && i < frontier_size
  | Join (i, j) -> i <> j && 0 <= i && i < frontier_size && 0 <= j && j < frontier_size

let trace_valid ops =
  let rec go size = function
    | [] -> true
    | op :: rest ->
        op_valid ~frontier_size:size op && go (size + size_delta op) rest
  in
  go 1 ops

let final_frontier_size ops =
  List.fold_left (fun size op -> size + size_delta op) 1 ops

exception Invalid_op of { op : op; frontier_size : int }

(* The positional list surgeries, shared by every structure that mirrors
   a frontier (stamps, histories, partition groups, labels, display
   rows). *)

let fork_positions frontier i ~left ~right =
  List.concat
    (List.mapi (fun k x -> if k = i then [ left; right ] else [ x ]) frontier)

let join_positions frontier i j ~merged =
  let lo = min i j in
  let kept = List.filteri (fun k _ -> k <> i && k <> j) frontier in
  let rec insert pos acc = function
    | rest when pos = lo -> List.rev_append acc (merged :: rest)
    | [] -> List.rev (merged :: acc)
    | x :: rest -> insert (pos + 1) (x :: acc) rest
  in
  insert 0 [] kept

module type SUBJECT = sig
  type t

  type state

  val initial : state * t

  val update : state -> t -> state * t

  val fork : state -> t -> state * (t * t)

  val join : state -> t -> t -> state * t
end

module type RUN = sig
  type state

  type frontier

  val init : state * frontier

  val apply : state -> frontier -> op -> state * frontier

  val run_state : op list -> state * frontier

  val run : op list -> frontier

  val run_steps : op list -> frontier list

  val fold : ('a -> frontier -> op -> frontier -> 'a) -> 'a -> op list -> 'a
end

module Run (S : SUBJECT) = struct
  type state = S.state

  type frontier = S.t list

  let init =
    let st, x = S.initial in
    (st, [ x ])

  (* Positional frontier semantics shared by every subject so lockstep
     runs stay element-aligned: update replaces in place, fork widens at
     the element's position, join contracts to the smaller position. *)
  let apply st frontier op =
    let n = List.length frontier in
    if not (op_valid ~frontier_size:n op) then
      raise (Invalid_op { op; frontier_size = n });
    match op with
    | Update i ->
        let st', x' = S.update st (List.nth frontier i) in
        (st', List.mapi (fun k x -> if k = i then x' else x) frontier)
    | Fork i ->
        let st', (a, b) = S.fork st (List.nth frontier i) in
        (st', fork_positions frontier i ~left:a ~right:b)
    | Join (i, j) ->
        let st', c = S.join st (List.nth frontier i) (List.nth frontier j) in
        (st', join_positions frontier i j ~merged:c)

  let run_state ops =
    let st, frontier = init in
    List.fold_left (fun (st, f) op -> apply st f op) (st, frontier) ops

  let run ops = snd (run_state ops)

  let run_steps ops =
    let st, frontier = init in
    let _, rev_steps =
      List.fold_left
        (fun ((st, f), acc) op ->
          let st', f' = apply st f op in
          ((st', f'), f' :: acc))
        ((st, frontier), [ frontier ])
        ops
    in
    List.rev rev_steps

  let fold visit acc ops =
    let st, frontier = init in
    let _, _, acc =
      List.fold_left
        (fun (st, f, acc) op ->
          let st', f' = apply st f op in
          (st', f', visit acc f op f'))
        (st, frontier, acc) ops
    in
    acc
end

module Stamp_subject (S : Stamp.S) = struct
  let make ~reduce =
    (module struct
      type t = S.t

      type state = unit

      let initial = ((), S.seed)

      let update () x = ((), S.update x)

      let fork () x = ((), S.fork x)

      let join () a b = ((), S.join ~reduce a b)
    end : SUBJECT
      with type t = S.t
       and type state = unit)
end

module Tree_subjects = Stamp_subject (Stamp)
module List_subjects = Stamp_subject (Stamp.Over_list)
module Stamps_reduced = (val Tree_subjects.make ~reduce:true)
module Stamps_nonreducing = (val Tree_subjects.make ~reduce:false)
module Stamps_list = (val List_subjects.make ~reduce:true)

module Histories = struct
  type t = Causal_history.t

  type state = Causal_history.Gen.t

  let initial = (Causal_history.Gen.initial, Causal_history.empty)

  let update gen h =
    let e, gen' = Causal_history.Gen.fresh gen in
    (gen', Causal_history.add_event e h)

  let fork gen h = (gen, (h, h))

  let join gen a b = (gen, Causal_history.union a b)
end

module Run_stamps = Run (Stamps_reduced)
module Run_stamps_nonreducing = Run (Stamps_nonreducing)
module Run_stamps_list = Run (Stamps_list)
module Run_histories = Run (Histories)

let run_lockstep ops =
  let stamps = Run_stamps.run ops in
  let histories = Run_histories.run ops in
  List.combine stamps histories
