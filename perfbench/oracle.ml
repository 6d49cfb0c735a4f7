type t = (string, string list) Hashtbl.t

type mismatch = { node : int; key : string; expected : string list; got : string list }

let create () : t = Hashtbl.create 1024

let set t key values = Hashtbl.replace t key (List.sort_uniq compare values)

let expected t key = Option.value ~default:[] (Hashtbl.find_opt t key)

(* Every op starts from converged replicas, so after it a key holds
   exactly the values written to it during the op: one dominating write,
   or the concurrent candidates of several writers. *)
let apply_writes t writes =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun (key, value) ->
      Hashtbl.replace fresh key (value :: Option.value ~default:[] (Hashtbl.find_opt fresh key)))
    writes;
  Hashtbl.iter (set t) fresh

let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let check_keys t ~nodes ~get keys =
  List.concat_map
    (fun node ->
      List.filter_map
        (fun key ->
          let got = List.sort compare (get node key) and expected = expected t key in
          if got = expected then None else Some { node; key; expected; got })
        keys)
    (List.init nodes Fun.id)

let check_full t ~nodes ~node_keys ~get =
  let model_keys = keys t in
  let strays =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun key ->
            if Hashtbl.mem t key then None
            else Some { node; key; expected = []; got = List.sort compare (get node key) })
          (node_keys node))
      (List.init nodes Fun.id)
  in
  strays @ check_keys t ~nodes ~get model_keys

let pp_mismatch ppf m =
  let pp_values = Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ",") pp_print_string) in
  Format.fprintf ppf "node %d key %s: expected [%a], got [%a]" m.node m.key pp_values m.expected
    pp_values m.got
