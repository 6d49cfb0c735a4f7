(* Identity-space observatory: partition-of-unity audit, fragmentation
   analytics and fork/join/retire genealogy over replica id fragments.
   See idspace.mli for the contract. *)

type fragment = string list

(* ------------------------------------------------------------------ *)
(* Partition-of-unity audit                                            *)
(* ------------------------------------------------------------------ *)

type violation =
  | Overlap of { a : string; a_frag : string; b : string; b_frag : string }
  | Leak of { path : string }
  | Malformed of { owner : string; frag : string }

let pp_violation ppf = function
  | Overlap { a; a_frag; b; b_frag } ->
      Format.fprintf ppf "overlap: %s owns %S, %s owns %S" a a_frag b b_frag
  | Leak { path } -> Format.fprintf ppf "leak: no fragment covers %S" path
  | Malformed { owner; frag } ->
      Format.fprintf ppf "malformed: %s holds non-binary fragment %S" owner
        frag

let violation_json = function
  | Overlap { a; a_frag; b; b_frag } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "overlap");
          ("a", Jsonx.String a);
          ("a_frag", Jsonx.String a_frag);
          ("b", Jsonx.String b);
          ("b_frag", Jsonx.String b_frag);
        ]
  | Leak { path } ->
      Jsonx.Obj [ ("kind", Jsonx.String "leak"); ("path", Jsonx.String path) ]
  | Malformed { owner; frag } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "malformed");
          ("owner", Jsonx.String owner);
          ("frag", Jsonx.String frag);
        ]

type audit = {
  audited : int;
  audit_fragments : int;
  violations : violation list;
}

(* One trie node per distinct prefix of the inventory.  [leaves] holds
   the (owner, fragment string) pairs whose fragment ends exactly
   here. *)
type trie = {
  mutable leaves : (string * string) list;
  mutable zero : trie option;
  mutable one : trie option;
}

let trie () = { leaves = []; zero = None; one = None }

let is_binary s =
  let ok = ref true in
  String.iter (fun c -> if c <> '0' && c <> '1' then ok := false) s;
  !ok

let insert root owner s =
  let node = ref root in
  String.iter
    (fun c ->
      let next =
        if c = '0' then (
          (match !node.zero with
          | None -> !node.zero <- Some (trie ())
          | Some _ -> ());
          Option.get !node.zero)
        else (
          (match !node.one with
          | None -> !node.one <- Some (trie ())
          | Some _ -> ());
          Option.get !node.one)
      in
      node := next)
    s;
  !node.leaves <- (owner, s) :: !node.leaves

(* First leaf in the subtree, 0-before-1 — the deterministic overlap
   witness below a covering leaf. *)
let rec first_leaf t =
  match List.sort compare t.leaves with
  | l :: _ -> Some l
  | [] -> (
      match t.zero with
      | Some z -> (
          match first_leaf z with Some _ as l -> l | None -> (
            match t.one with Some o -> first_leaf o | None -> None))
      | None -> ( match t.one with Some o -> first_leaf o | None -> None))

let audit_fragments inventory =
  let root = trie () in
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let audited = List.length inventory in
  let nfrags = ref 0 in
  List.iter
    (fun (owner, frag) ->
      List.iter
        (fun s ->
          incr nfrags;
          if is_binary s then insert root owner s
          else push (Malformed { owner; frag = s }))
        frag)
    inventory;
  (* Depth-first walk: a position is either covered exactly once (a
     leaf with no extra leaves above or below it), or it witnesses an
     overlap or a leak. *)
  let rec walk path t =
    match List.sort compare t.leaves with
    | (a, af) :: rest -> (
        (* A leaf covers everything below [path]; any other leaf here
           or deeper overlaps it.  One witness per position. *)
        match rest with
        | (b, bf) :: _ -> push (Overlap { a; a_frag = af; b; b_frag = bf })
        | [] -> (
            let deeper =
              match (t.zero, t.one) with
              | None, None -> None
              | Some z, _ when first_leaf z <> None -> first_leaf z
              | _, Some o -> first_leaf o
              | _ -> None
            in
            match deeper with
            | Some (b, bf) -> push (Overlap { a; a_frag = af; b; b_frag = bf })
            | None -> ()))
    | [] -> (
        match (t.zero, t.one) with
        | None, None -> push (Leak { path })
        | Some z, Some o ->
            walk (path ^ "0") z;
            walk (path ^ "1") o
        | Some z, None ->
            walk (path ^ "0") z;
            push (Leak { path = path ^ "1" })
        | None, Some o ->
            push (Leak { path = path ^ "0" });
            walk (path ^ "1") o)
  in
  walk "" root;
  {
    audited;
    audit_fragments = !nfrags;
    violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Fragmentation analytics                                             *)
(* ------------------------------------------------------------------ *)

(* Minimal external path length of a binary tree with [n] leaves: with
   [k = floor(log2 n)], [2 * (n - 2^k)] leaves sit at depth [k + 1]
   and the rest at depth [k]. *)
let oracle_shape n =
  if n <= 1 then (0, 0, n)
  else begin
    let k = ref 0 in
    while 1 lsl (!k + 1) <= n do incr k done;
    let k = !k in
    let deep = 2 * (n - (1 lsl k)) in
    (k, deep, n - deep)
  end

let oracle_bits n =
  if n <= 1 then 0
  else
    let k, deep, shallow = oracle_shape n in
    (k * shallow) + ((k + 1) * deep)

let oracle_entropy n =
  if n <= 1 then 0.
  else
    let k, deep, shallow = oracle_shape n in
    let cover d = 2. ** float_of_int (-d) in
    (float_of_int shallow *. float_of_int k *. cover k)
    +. (float_of_int deep *. float_of_int (k + 1) *. cover (k + 1))

type stats = {
  live : int;
  fragments : int;
  id_bits : int;
  oracle_bits : int;
  max_depth : int;
  max_width : int;
  mean_width : float;
  entropy : float;
  oracle_entropy : float;
  reduce_effectiveness : float;
  width_dist : (int * int) list;
  depth_dist : (int * int) list;
}

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let dist_of tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let stats_of_fragments inventory =
  let live = List.length inventory in
  let fragments = ref 0 and id_bits = ref 0 in
  let max_depth = ref 0 and max_width = ref 0 in
  let entropy = ref 0. in
  let widths = Hashtbl.create 16 and depths = Hashtbl.create 16 in
  List.iter
    (fun (_, frag) ->
      let w = List.length frag in
      fragments := !fragments + w;
      if w > !max_width then max_width := w;
      bump widths w;
      List.iter
        (fun s ->
          let d = String.length s in
          id_bits := !id_bits + d;
          if d > !max_depth then max_depth := d;
          bump depths d;
          entropy := !entropy +. (2. ** float_of_int (-d) *. float_of_int d))
        frag)
    inventory;
  let ob = oracle_bits live in
  {
    live;
    fragments = !fragments;
    id_bits = !id_bits;
    oracle_bits = ob;
    max_depth = !max_depth;
    max_width = !max_width;
    mean_width =
      (if live = 0 then 0. else float_of_int !fragments /. float_of_int live);
    entropy = !entropy;
    oracle_entropy = oracle_entropy live;
    reduce_effectiveness =
      (if !id_bits = 0 then 1.
       else float_of_int ob /. float_of_int !id_bits);
    width_dist = dist_of widths;
    depth_dist = dist_of depths;
  }

let dist_json d =
  Jsonx.List
    (List.map
       (fun (k, v) -> Jsonx.List [ Jsonx.Int k; Jsonx.Int v ])
       d)

let stats_json s =
  Jsonx.Obj
    [
      ("live", Jsonx.Int s.live);
      ("fragments", Jsonx.Int s.fragments);
      ("id_bits", Jsonx.Int s.id_bits);
      ("oracle_bits", Jsonx.Int s.oracle_bits);
      ("max_depth", Jsonx.Int s.max_depth);
      ("max_width", Jsonx.Int s.max_width);
      ("mean_width", Jsonx.Float s.mean_width);
      ("entropy", Jsonx.Float s.entropy);
      ("oracle_entropy", Jsonx.Float s.oracle_entropy);
      ("reduce_effectiveness", Jsonx.Float s.reduce_effectiveness);
      ("width_dist", dist_json s.width_dist);
      ("depth_dist", dist_json s.depth_dist);
    ]

(* ------------------------------------------------------------------ *)
(* Genealogy inventory                                                 *)
(* ------------------------------------------------------------------ *)

type node_id = int

type via = Seed | Fork | Join | Retire

type node = {
  id : node_id;
  label : string;
  via : via;
  parents : node_id list;
  born : int;
  mutable frag : fragment;
  mutable died : int option;
  mutable refreshes : int;
}

type t = {
  nodes : (node_id, node) Hashtbl.t;
  mutable order : node_id list;  (* newest first *)
  mutable next : node_id;
  mutable seq : int;
  mutable n_seeds : int;
  mutable n_forks : int;
  mutable n_retires : int;
  mutable n_refreshes : int;
  mutable reclaimed : int;
  mutable forked_bits : int;
  (* publication watermarks: counters are only advanced by growth *)
  mutable pub : int array;  (* seeds forks retires refreshes reclaimed fork_bits *)
}

let create () =
  {
    nodes = Hashtbl.create 64;
    order = [];
    next = 0;
    seq = 0;
    n_seeds = 0;
    n_forks = 0;
    n_retires = 0;
    n_refreshes = 0;
    reclaimed = 0;
    forked_bits = 0;
    pub = Array.make 6 0;
  }

let frag_bits frag = List.fold_left (fun acc s -> acc + String.length s) 0 frag

let tick t =
  t.seq <- t.seq + 1;
  t.seq

let add_node t ?label ~via ~parents frag =
  let id = t.next in
  t.next <- id + 1;
  let label = match label with Some l -> l | None -> "n" ^ string_of_int id in
  let n =
    { id; label; via; parents; born = tick t; frag; died = None; refreshes = 0 }
  in
  Hashtbl.replace t.nodes id n;
  t.order <- id :: t.order;
  n

let find t id = Hashtbl.find_opt t.nodes id

let live_node t id =
  match find t id with
  | Some n when n.died = None -> n
  | Some _ -> invalid_arg (Printf.sprintf "Idspace: node %d is not live" id)
  | None -> invalid_arg (Printf.sprintf "Idspace: unknown node %d" id)

let seed ?label t frag =
  let n = add_node t ?label ~via:Seed ~parents:[] frag in
  t.n_seeds <- t.n_seeds + 1;
  n.id

let fork ?labels t parent ~left ~right =
  let p = live_node t parent in
  p.died <- Some (tick t);
  let ll, rl =
    match labels with Some (a, b) -> (Some a, Some b) | None -> (None, None)
  in
  let l = add_node t ?label:ll ~via:Fork ~parents:[ parent ] left in
  let r = add_node t ?label:rl ~via:Fork ~parents:[ parent ] right in
  t.n_forks <- t.n_forks + 1;
  let added = frag_bits left + frag_bits right - frag_bits p.frag in
  if added > 0 then t.forked_bits <- t.forked_bits + added;
  (l.id, r.id)

let retire ?label t ~survivor retiree frag =
  if survivor = retiree then
    invalid_arg "Idspace.retire: parents must be distinct";
  let na = live_node t survivor in
  let nb = live_node t retiree in
  let before = frag_bits na.frag + frag_bits nb.frag in
  na.died <- Some (tick t);
  nb.died <- Some (tick t);
  let n = add_node t ?label ~via:Retire ~parents:[ survivor; retiree ] frag in
  t.n_retires <- t.n_retires + 1;
  let reclaimed = before - frag_bits frag in
  if reclaimed > 0 then t.reclaimed <- t.reclaimed + reclaimed;
  n.id

let refresh t id frag =
  let n = live_node t id in
  let dropped = frag_bits n.frag - frag_bits frag in
  if dropped > 0 then t.reclaimed <- t.reclaimed + dropped;
  n.frag <- frag;
  n.refreshes <- n.refreshes + 1;
  t.n_refreshes <- t.n_refreshes + 1

let live t =
  Hashtbl.fold (fun id n acc -> if n.died = None then id :: acc else acc)
    t.nodes []
  |> List.sort compare

let live_count t =
  Hashtbl.fold (fun _ n acc -> if n.died = None then acc + 1 else acc) t.nodes 0

let node_count t = Hashtbl.length t.nodes

let live_inventory t =
  List.map
    (fun id ->
      let n = Hashtbl.find t.nodes id in
      (n.label, n.frag))
    (live t)

let audit t = audit_fragments (live_inventory t)

let stats t = stats_of_fragments (live_inventory t)

let forks t = t.n_forks
let retires t = t.n_retires
let refreshes t = t.n_refreshes
let reclaimed_bits t = t.reclaimed
let fork_bits t = t.forked_bits

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let via_string = function
  | Seed -> "seed"
  | Fork -> "fork"
  | Join -> "join"
  | Retire -> "retire"

let frag_string frag =
  "{" ^ String.concat "," (List.map (fun s -> if s = "" then "ε" else s) frag)
  ^ "}"

let to_dot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph idspace {\n";
  Buffer.add_string b "  rankdir=TB;\n  node [shape=box,fontname=\"monospace\"];\n";
  let ordered = List.rev t.order in
  List.iter
    (fun id ->
      let n = Hashtbl.find t.nodes id in
      let style =
        if n.died = None then "style=bold,color=darkgreen"
        else "color=gray55,fontcolor=gray40"
      in
      Buffer.add_string b
        (Printf.sprintf "  n%d [label=\"%s [%s]\\n%s\",%s];\n" n.id
           (Dot.escape n.label) (via_string n.via)
           (Dot.escape (frag_string n.frag))
           style))
    ordered;
  List.iter
    (fun id ->
      let n = Hashtbl.find t.nodes id in
      List.iteri
        (fun i p ->
          let attr =
            match n.via with
            | Retire when i = 1 -> " [style=dashed,label=\"retire\"]"
            | _ -> ""
          in
          Buffer.add_string b (Printf.sprintf "  n%d -> n%d%s;\n" p n.id attr))
        n.parents)
    ordered;
  Buffer.add_string b "}\n";
  Buffer.contents b

let node_json n =
  Jsonx.Obj
    [
      ("id", Jsonx.Int n.id);
      ("label", Jsonx.String n.label);
      ("via", Jsonx.String (via_string n.via));
      ("parents", Jsonx.List (List.map (fun p -> Jsonx.Int p) n.parents));
      ("born", Jsonx.Int n.born);
      ( "died",
        match n.died with Some d -> Jsonx.Int d | None -> Jsonx.Null );
      ("frag", Jsonx.List (List.map (fun s -> Jsonx.String s) n.frag));
      ("refreshes", Jsonx.Int n.refreshes);
    ]

let audit_json a =
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool (a.violations = []));
      ("audited", Jsonx.Int a.audited);
      ("fragments", Jsonx.Int a.audit_fragments);
      ("violations", Jsonx.List (List.map violation_json a.violations));
    ]

let ops_json t =
  Jsonx.Obj
    [
      ("seeds", Jsonx.Int t.n_seeds);
      ("forks", Jsonx.Int t.n_forks);
      ("joins", Jsonx.Int 0);
      ("retires", Jsonx.Int t.n_retires);
      ("refreshes", Jsonx.Int t.n_refreshes);
      ("reclaimed_bits", Jsonx.Int t.reclaimed);
      ("fork_bits", Jsonx.Int t.forked_bits);
    ]

let to_json t =
  let ordered = List.rev t.order in
  Jsonx.Obj
    [
      ("schema", Jsonx.String "vstamp-idspace/1");
      ("stats", stats_json (stats t));
      ("audit", audit_json (audit t));
      ("ops", ops_json t);
      ( "nodes",
        Jsonx.List
          (List.map (fun id -> node_json (Hashtbl.find t.nodes id)) ordered) );
    ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let gauge_names =
  [
    "vstamp_idspace_live_replicas";
    "vstamp_idspace_fragments";
    "vstamp_idspace_id_bits";
    "vstamp_idspace_oracle_bits";
    "vstamp_idspace_entropy";
    "vstamp_idspace_oracle_entropy";
    "vstamp_idspace_max_depth";
    "vstamp_idspace_mean_width";
    "vstamp_idspace_reduce_effectiveness";
    "vstamp_idspace_audit_violations";
    "vstamp_idspace_genealogy_nodes";
  ]

let op_name op = Registry.with_labels "vstamp_idspace_ops_total" [ ("op", op) ]

let publish ?(registry = Registry.default) t =
  let s = stats t in
  let a = audit t in
  let set name v = Metric.set (Registry.gauge registry name) v in
  set "vstamp_idspace_live_replicas" (float_of_int s.live);
  set "vstamp_idspace_fragments" (float_of_int s.fragments);
  set "vstamp_idspace_id_bits" (float_of_int s.id_bits);
  set "vstamp_idspace_oracle_bits" (float_of_int s.oracle_bits);
  set "vstamp_idspace_entropy" s.entropy;
  set "vstamp_idspace_oracle_entropy" s.oracle_entropy;
  set "vstamp_idspace_max_depth" (float_of_int s.max_depth);
  set "vstamp_idspace_mean_width" s.mean_width;
  set "vstamp_idspace_reduce_effectiveness" s.reduce_effectiveness;
  set "vstamp_idspace_audit_violations"
    (float_of_int (List.length a.violations));
  set "vstamp_idspace_genealogy_nodes" (float_of_int (node_count t));
  (* counters accumulate across runs sharing a registry: add growth
     since this inventory's previous publication only *)
  let delta i cur name =
    let d = cur - t.pub.(i) in
    if d > 0 then Metric.add (Registry.counter registry name) d;
    t.pub.(i) <- cur
  in
  delta 0 t.n_seeds (op_name "seed");
  delta 1 t.n_forks (op_name "fork");
  delta 2 t.n_retires (op_name "retire");
  delta 3 t.n_refreshes (op_name "refresh");
  delta 4 t.reclaimed "vstamp_idspace_reclaimed_bits_total";
  delta 5 t.forked_bits "vstamp_idspace_fork_bits_total"

let view_json registry =
  let gauges = ref [] in
  let ops = ref [] in
  let reclaimed = ref Jsonx.Null in
  let forked = ref Jsonx.Null in
  let strip name =
    (* vstamp_idspace_live_replicas -> live_replicas *)
    String.sub name 15 (String.length name - 15)
  in
  List.iter
    (fun (name, metric) ->
      let v = Registry.value metric in
      match
        Registry.label_value ~base:"vstamp_idspace_ops_total" ~label:"op" name
      with
      | Some op -> ops := (op, Jsonx.Float v) :: !ops
      | None ->
          if name = "vstamp_idspace_reclaimed_bits_total" then
            reclaimed := Jsonx.Float v
          else if name = "vstamp_idspace_fork_bits_total" then
            forked := Jsonx.Float v
          else if List.mem name gauge_names then
            gauges := (strip name, Jsonx.Float v) :: !gauges)
    (Registry.snapshot registry);
  Jsonx.Obj
    [
      ("idspace", Jsonx.Obj (List.rev !gauges));
      ("ops", Jsonx.Obj (List.rev !ops));
      ("reclaimed_bits_total", !reclaimed);
      ("fork_bits_total", !forked);
    ]
