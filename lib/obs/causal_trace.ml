type kind = Seed | Update | Fork_left | Fork_right | Join

let kind_to_string = function
  | Seed -> "seed"
  | Update -> "update"
  | Fork_left -> "fork.l"
  | Fork_right -> "fork.r"
  | Join -> "join"

let kind_of_string = function
  | "seed" -> Some Seed
  | "update" -> Some Update
  | "fork.l" -> Some Fork_left
  | "fork.r" -> Some Fork_right
  | "join" -> Some Join
  | _ -> None

let arity = function
  | Seed -> 0
  | Update | Fork_left | Fork_right -> 1
  | Join -> 2

type node = {
  id : int;
  step : int;
  kind : kind;
  parents : int list;
  replica : int;
  label : string;
}

type t = { mutable rev_nodes : node list; mutable next : int }

let create () = { rev_nodes = []; next = 0 }

let length t = t.next

let add t ~step ~kind ~parents ~replica ~label =
  if step < 0 then invalid_arg "Causal_trace.add: negative step";
  if replica < 0 then invalid_arg "Causal_trace.add: negative replica";
  if List.length parents <> arity kind then
    invalid_arg
      (Printf.sprintf "Causal_trace.add: %s node needs %d parent(s)"
         (kind_to_string kind) (arity kind));
  List.iter
    (fun p ->
      if p < 0 || p >= t.next then
        invalid_arg (Printf.sprintf "Causal_trace.add: unknown parent %d" p))
    parents;
  let id = t.next in
  t.rev_nodes <- { id; step; kind; parents; replica; label } :: t.rev_nodes;
  t.next <- id + 1;
  id

let nodes t = List.rev t.rev_nodes

let node t id =
  if id < 0 || id >= t.next then None
  else Some (List.nth t.rev_nodes (t.next - 1 - id))

let node_equal a b =
  a.id = b.id && a.step = b.step && a.kind = b.kind && a.parents = b.parents
  && a.replica = b.replica
  && String.equal a.label b.label

let equal a b =
  a.next = b.next && List.for_all2 node_equal (nodes a) (nodes b)

(* --- DAG queries --- *)

let ancestors t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Causal_trace.ancestors: unknown node %d" id);
  let arr = Array.of_list (nodes t) in
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter visit arr.(id).parents
    end
  in
  visit id;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let latest_common_ancestor t a b =
  let in_a = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.add in_a id ()) (ancestors t a);
  List.fold_left
    (fun best id -> if Hashtbl.mem in_a id then Some id else best)
    None (ancestors t b)

let find_by_label t label =
  let rec go = function
    | [] -> None
    | n :: rest -> if String.equal n.label label then Some n.id else go rest
  in
  go t.rev_nodes

(* --- JSONL form --- *)

let node_to_event n =
  Event.v ~ts:(Event.Step n.step) "trace.node"
    [
      ("id", Jsonx.Int n.id);
      ("kind", Jsonx.String (kind_to_string n.kind));
      ("replica", Jsonx.Int n.replica);
      ("parents", Jsonx.List (List.map (fun p -> Jsonx.Int p) n.parents));
      ("label", Jsonx.String n.label);
    ]

let to_events t =
  Event.v "trace.meta"
    [ ("format", Jsonx.String "vstamp-causal-trace/1"); ("nodes", Jsonx.Int t.next) ]
  :: List.map node_to_event (nodes t)

let node_of_event e =
  let field name = Jsonx.member name (Jsonx.Obj e.Event.fields) in
  let int_field name =
    match Option.bind (field name) Jsonx.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "trace.node: missing int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* id = int_field "id" in
  let* replica = int_field "replica" in
  let* kind =
    match Option.bind (field "kind") Jsonx.to_str with
    | Some s -> (
        match kind_of_string s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "trace.node %d: unknown kind %S" id s))
    | None -> Error (Printf.sprintf "trace.node %d: missing kind" id)
  in
  let* parents =
    match field "parents" with
    | Some (Jsonx.List ps) ->
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            match Jsonx.to_int p with
            | Some p -> Ok (acc @ [ p ])
            | None -> Error (Printf.sprintf "trace.node %d: bad parent" id))
          (Ok []) ps
    | _ -> Error (Printf.sprintf "trace.node %d: missing parents" id)
  in
  let* label =
    match Option.bind (field "label") Jsonx.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "trace.node %d: missing label" id)
  in
  let* step =
    match e.Event.ts with
    | Event.Step k -> Ok k
    | _ -> Error (Printf.sprintf "trace.node %d: missing step timestamp" id)
  in
  Ok (id, step, kind, parents, replica, label)

(* Strict inverse of [to_events]: an optional [trace.meta] header, then
   one [trace.node] event per node, ids consecutive from 0, each node
   re-validated by [add]. *)
let of_events events =
  let events =
    match events with
    | e :: rest when String.equal e.Event.name "trace.meta" -> rest
    | es -> es
  in
  let t = create () in
  let rec go = function
    | [] -> Ok t
    | e :: rest ->
        if not (String.equal e.Event.name "trace.node") then
          Error (Printf.sprintf "unexpected event %S in trace" e.Event.name)
        else (
          match node_of_event e with
          | Error _ as err -> err
          | Ok (id, step, kind, parents, replica, label) ->
              if id <> t.next then
                Error
                  (Printf.sprintf "trace.node id %d out of order (expected %d)"
                     id t.next)
              else (
                match add t ~step ~kind ~parents ~replica ~label with
                | _ -> go rest
                | exception Invalid_argument m -> Error m))
  in
  go events

let to_jsonl t =
  String.concat ""
    (List.map (fun e -> Event.to_string e ^ "\n") (to_events t))

let of_jsonl input = Result.bind (Jsonl.parse Event.of_string input) of_events

(* --- Graphviz DOT --- *)

let dot_shape = function
  | Seed -> "doublecircle"
  | Update -> "ellipse"
  | Fork_left | Fork_right -> "box"
  | Join -> "diamond"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph causal_trace {\n";
  Buffer.add_string buf "  rankdir=LR;\n";
  Buffer.add_string buf "  node [fontname=\"monospace\"];\n";
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"#%d %s @%d\\n%s\" shape=%s];\n" n.id
           n.id
           (Dot.escape (kind_to_string n.kind))
           n.step (Dot.escape n.label) (dot_shape n.kind)))
    (nodes t);
  List.iter
    (fun n ->
      List.iter
        (fun p -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" p n.id))
        n.parents)
    (nodes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- Chrome trace-event JSON --- *)

let to_chrome t =
  let slice n =
    {
      Chrome.name = kind_to_string n.kind;
      cat = "replica";
      ts = n.step;
      dur = 1;
      pid = 0;
      tid = n.replica;
      args =
        [
          ("node", Jsonx.Int n.id);
          ("label", Jsonx.String n.label);
          ("parents", Jsonx.List (List.map (fun p -> Jsonx.Int p) n.parents));
        ];
    }
  in
  let slices = Array.of_list (List.map slice (nodes t)) in
  let flows =
    List.concat_map
      (fun n ->
        List.mapi
          (fun k p ->
            {
              Chrome.id = (n.id * 4) + k;
              src = slices.(p);
              dst = slices.(n.id);
            })
          n.parents)
      (nodes t)
  in
  Chrome.trace ~lanes:[] ~flows (Array.to_list slices)
