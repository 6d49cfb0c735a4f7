open Vstamp_vv
module Smap = Map.Make (String)

(* Optional live instrumentation, off by default: when attached, every
   client-facing operation and anti-entropy round counts into a
   registry, the feed the embedded telemetry server exposes.  Counters
   are resolved once at attach time so the per-op cost when enabled is
   one load and one increment. *)
module Obs = struct
  module R = Vstamp_obs.Registry
  module M = Vstamp_obs.Metric

  type counters = {
    get : M.counter;
    put : M.counter;
    delete : M.counter;
    anti_entropy : M.counter;
    siblings : M.histogram;  (* sibling values returned per get *)
    size_bits : M.histogram;  (* node metadata after anti-entropy *)
  }

  let state : counters option ref = ref None

  let attach ?(registry = R.default) () =
    let op o = R.counter registry (R.with_labels "kvs_ops_total" [ ("op", o) ]) in
    state :=
      Some
        {
          get = op "get";
          put = op "put";
          delete = op "delete";
          anti_entropy = op "anti_entropy";
          siblings = R.histogram registry "kvs_get_siblings";
          size_bits = R.histogram registry "kvs_node_size_bits";
        }

  let detach () = state := None

  let attached () = Option.is_some !state

  let[@inline] on f = match !state with Some c -> f c | None -> ()
end

type t = { id : Version_vector.id; entries : string Dotted_vv.t Smap.t }
(* One server replica of the whole keyspace.  Each key is tracked
   independently with a dotted version vector; entries whose sibling set
   is empty are kept as tombstone contexts so deleted writes cannot be
   resurrected by anti-entropy with a stale peer. *)

let create ~id = { id; entries = Smap.empty }

let entry node key =
  match Smap.find_opt key node.entries with
  | Some e -> e
  | None -> Dotted_vv.empty

let keys node =
  Smap.bindings node.entries
  |> List.filter_map (fun (k, e) ->
         if Dotted_vv.is_empty e then None else Some k)

let tombstones node =
  Smap.bindings node.entries
  |> List.filter_map (fun (k, e) ->
         if Dotted_vv.is_empty e then Some k else None)

let get node key =
  let values, context = Dotted_vv.get (entry node key) in
  Obs.on (fun c ->
      Vstamp_obs.Metric.inc c.Obs.get;
      Vstamp_obs.Metric.observe_int c.Obs.siblings (List.length values));
  (values, context)

let put node ~key ~context value =
  Obs.on (fun c -> Vstamp_obs.Metric.inc c.Obs.put);
  let e = Dotted_vv.put (entry node key) ~replica:node.id ~context value in
  { node with entries = Smap.add key e node.entries }

(* A delete is a causal overwrite with no replacement value: siblings the
   client saw disappear; concurrent writes survive.  The context lives on
   as a tombstone. *)
let delete node ~key ~context =
  Obs.on (fun c -> Vstamp_obs.Metric.inc c.Obs.delete);
  match Smap.find_opt key node.entries with
  | None -> node
  | Some e ->
      let e' = Dotted_vv.remove_covered e ~context in
      { node with entries = Smap.add key e' node.entries }

let conflict node key = Dotted_vv.conflict (entry node key)

let size_bits node =
  Smap.fold (fun _ e acc -> acc + Dotted_vv.size_bits e) node.entries 0

let anti_entropy a b =
  let all_keys =
    List.sort_uniq compare
      (List.map fst (Smap.bindings a.entries)
      @ List.map fst (Smap.bindings b.entries))
  in
  let merged =
    List.map (fun k -> (k, Dotted_vv.sync (entry a k) (entry b k))) all_keys
  in
  let apply node =
    {
      node with
      entries =
        List.fold_left
          (fun acc (k, e) -> Smap.add k e acc)
          node.entries merged;
    }
  in
  let a' = apply a and b' = apply b in
  Obs.on (fun c ->
      Vstamp_obs.Metric.inc c.Obs.anti_entropy;
      Vstamp_obs.Metric.observe_int c.Obs.size_bits (size_bits a');
      Vstamp_obs.Metric.observe_int c.Obs.size_bits (size_bits b'));
  (a', b')

let converged a b =
  let all_keys =
    List.sort_uniq compare
      (List.map fst (Smap.bindings a.entries)
      @ List.map fst (Smap.bindings b.entries))
  in
  List.for_all
    (fun k ->
      List.sort compare (Dotted_vv.values (entry a k))
      = List.sort compare (Dotted_vv.values (entry b k)))
    all_keys

let pp ppf node =
  Format.fprintf ppf "node %d:@." node.id;
  Smap.iter
    (fun k e ->
      Format.fprintf ppf "  %-12s %a@." k
        (Dotted_vv.pp (fun ppf v -> Format.pp_print_string ppf v))
        e)
    node.entries
