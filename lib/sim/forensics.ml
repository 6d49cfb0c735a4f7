open Vstamp_core
module CT = Vstamp_obs.Causal_trace

let record ?check_invariants ?violation_out packed ops =
  let tr = CT.create () in
  let result =
    System.run ~with_oracle:false ?check_invariants ?violation_out ~trace:tr
      packed ops
  in
  (tr, result)

(* Reconstruction replays the frontier of node ids exactly as the
   recorder maintained it, so a well-formed DAG maps back to the unique
   op sequence that produced it. *)
let ops_of_trace tr =
  let err id msg = Error (Printf.sprintf "node #%d: %s" id msg) in
  let index_of heads p =
    let rec go k = function
      | [] -> None
      | h :: _ when h = p -> Some k
      | _ :: tl -> go (k + 1) tl
    in
    go 0 heads
  in
  let rec seeds rev_heads = function
    | ({ CT.kind = CT.Seed; _ } as n) :: rest ->
        seeds (n.CT.id :: rev_heads) rest
    | rest -> (List.rev rev_heads, rest)
  in
  let heads0, rest = seeds [] (CT.nodes tr) in
  if heads0 = [] then Error "empty trace: no seed node"
  else
    let rec go heads rev_ops = function
      | [] -> Ok (List.rev rev_ops)
      | { CT.kind = CT.Seed; id; _ } :: _ ->
          err id "seed node after the first operation"
      | ({ CT.kind = CT.Update; parents = [ p ]; _ } as n) :: rest -> (
          match index_of heads p with
          | None -> err n.CT.id "update parent is not a frontier head"
          | Some i ->
              if n.CT.replica <> i then
                err n.CT.id
                  (Printf.sprintf
                     "update applies at frontier position %d but recorded \
                      replica %d"
                     i n.CT.replica)
              else
                go
                  (List.mapi (fun k h -> if k = i then n.CT.id else h) heads)
                  (Execution.Update i :: rev_ops)
                  rest)
      | ({ CT.kind = CT.Fork_left; parents = [ p ]; _ } as l)
        :: ({ CT.kind = CT.Fork_right; parents = [ q ]; _ } as r)
        :: rest -> (
          if p <> q then err r.CT.id "fork halves disagree on their parent"
          else
            match index_of heads p with
            | None -> err l.CT.id "fork parent is not a frontier head"
            | Some i ->
                if l.CT.replica <> i || r.CT.replica <> i + 1 then
                  err l.CT.id
                    (Printf.sprintf
                       "fork at frontier position %d but recorded replicas \
                        (%d, %d)"
                       i l.CT.replica r.CT.replica)
                else
                  go
                    (Execution.fork_positions heads i ~left:l.CT.id
                       ~right:r.CT.id)
                    (Execution.Fork i :: rev_ops)
                    rest)
      | { CT.kind = CT.Fork_left; id; _ } :: _ ->
          err id "fork.l without an immediately following fork.r"
      | { CT.kind = CT.Fork_right; id; _ } :: _ ->
          err id "fork.r without a preceding fork.l"
      | ({ CT.kind = CT.Join; parents = [ p; q ]; _ } as n) :: rest -> (
          match (index_of heads p, index_of heads q) with
          | Some i, Some j when i <> j ->
              if n.CT.replica <> min i j then
                err n.CT.id
                  (Printf.sprintf
                     "join lands at frontier position %d but recorded replica \
                      %d"
                     (min i j) n.CT.replica)
              else
                go
                  (Execution.join_positions heads i j ~merged:n.CT.id)
                  (Execution.Join (i, j) :: rev_ops)
                  rest
          | _ -> err n.CT.id "join parents are not two distinct frontier heads")
      | { CT.id; _ } :: _ ->
          (* Parent arities are enforced by [Causal_trace.add], so this
             is unreachable on any trace built through the public API. *)
          err id "malformed node"
    in
    go heads0 [] rest

type replay_report = {
  ops : Execution.op list;
  replayed : CT.t;
  identical : bool;
}

let replay ?check_invariants packed tr =
  match ops_of_trace tr with
  | Error e -> Error e
  | Ok ops ->
      let replayed, _ = record ?check_invariants packed ops in
      Ok { ops; replayed; identical = CT.to_jsonl replayed = CT.to_jsonl tr }

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let resolve tr sel =
  let fail msg = Error (Printf.sprintf "%S: %s" sel msg) in
  if String.length sel > 1 && sel.[0] = '#' then
    match int_of_string_opt (String.sub sel 1 (String.length sel - 1)) with
    | None -> fail "malformed node id (expected #<number>)"
    | Some id -> (
        match CT.node tr id with
        | Some _ -> Ok id
        | None -> fail "no such node id")
  else
    match CT.find_by_label tr sel with
    | Some id -> Ok id
    | None -> fail "no recorded state carries this label"

type explanation = {
  a : CT.node;
  b : CT.node;
  relation : Relation.t;
  meet : CT.node option;
  only_a : CT.node list;
  only_b : CT.node list;
  joins_a : CT.node list;
  joins_b : CT.node list;
}

module Int_set = Set.Make (Int)

let explain tr sel_a sel_b =
  match (resolve tr sel_a, resolve tr sel_b) with
  | Error e, _ | _, Error e -> Error e
  | Ok ia, Ok ib ->
      let anc_a = CT.ancestors tr ia and anc_b = CT.ancestors tr ib in
      let set_a = Int_set.of_list anc_a and set_b = Int_set.of_list anc_b in
      let node_exn id =
        match CT.node tr id with Some n -> n | None -> assert false
      in
      (* Exclusive events of one side: ancestors absent from the other
         side's history, filtered by kind, in id (= causal) order. *)
      let exclusive keep ids others =
        List.filter_map
          (fun id ->
            if Int_set.mem id others then None
            else
              let n = node_exn id in
              if keep n.CT.kind then Some n else None)
          ids
      in
      let is_update = function CT.Update -> true | _ -> false in
      let is_join = function CT.Join -> true | _ -> false in
      let only_a = exclusive is_update anc_a set_b
      and only_b = exclusive is_update anc_b set_a in
      Ok
        {
          a = node_exn ia;
          b = node_exn ib;
          (* Causal-history inclusion, straight off the DAG: A <= B iff
             B has absorbed every update event A has (Prop. 5.1 makes
             this the stamp order for coexisting replicas). *)
          relation =
            Relation.of_leq_pair ~leq_ab:(only_a = []) ~leq_ba:(only_b = []);
          meet = Option.map node_exn (CT.latest_common_ancestor tr ia ib);
          only_a;
          only_b;
          joins_a = exclusive is_join anc_a set_b;
          joins_b = exclusive is_join anc_b set_a;
        }

(* The label is stamp notation and may hold UTF-8 (ε), so no [%S]. *)
let pp_node ppf (n : CT.node) =
  Format.fprintf ppf "#%d %s %s (step %d, replica %d)" n.CT.id
    (CT.kind_to_string n.CT.kind)
    n.CT.label n.CT.step n.CT.replica

let pp_explanation ppf e =
  let pp_list header ppf = function
    | [] -> Format.fprintf ppf "%s: none@," header
    | ns ->
        Format.fprintf ppf "%s:@," header;
        List.iter (fun n -> Format.fprintf ppf "  %a@," pp_node n) ns
  in
  let verdict =
    match e.relation with
    | Relation.Equal -> "A and B are equivalent (same causal history)"
    | Relation.Dominates -> "A dominates B: B is obsolete"
    | Relation.Dominated -> "A is obsolete: B dominates it"
    | Relation.Concurrent ->
        "A and B are mutually inconsistent (concurrent updates)"
  in
  Format.fprintf ppf "@[<v>A = %a@,B = %a@,verdict: %s@," pp_node e.a pp_node
    e.b verdict;
  (match e.meet with
  | Some m -> Format.fprintf ppf "last shared state: %a@," pp_node m
  | None -> Format.fprintf ppf "last shared state: none@,");
  pp_list "updates seen by A only" ppf e.only_a;
  pp_list "updates seen by B only" ppf e.only_b;
  pp_list "joins folding knowledge into A" ppf e.joins_a;
  pp_list "joins folding knowledge into B" ppf e.joins_b;
  Format.fprintf ppf "@]"
