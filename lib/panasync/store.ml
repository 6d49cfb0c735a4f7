module Smap = Map.Make (String)

type file = File_copy.t

type t = { name : string; files : File_copy.t Smap.t }

let create ~name = { name; files = Smap.empty }

let paths s = List.map fst (Smap.bindings s.files)

let find s path = Smap.find_opt path s.files

let file_count s = Smap.cardinal s.files

let mem s path = Smap.mem path s.files

let add_new s ~path ~content =
  if Smap.mem path s.files then
    invalid_arg
      (Printf.sprintf "Store.add_new: %s already exists in %s" path s.name)
  else
    { s with files = Smap.add path (File_copy.create ~path ~content) s.files }

let edit s ~path ~content =
  match Smap.find_opt path s.files with
  | None -> invalid_arg (Printf.sprintf "Store.edit: no %s in %s" path s.name)
  | Some c ->
      { s with files = Smap.add path (File_copy.edit c ~content) s.files }

let remove s ~path = { s with files = Smap.remove path s.files }

let set s copy = { s with files = Smap.add (File_copy.path copy) copy s.files }

let fold f s acc = Smap.fold (fun _ c acc -> f c acc) s.files acc

let total_tracking_bits s =
  fold (fun c acc -> acc + File_copy.size_bits c) s 0

let pp ppf s =
  Format.fprintf ppf "store %s:@." s.name;
  Smap.iter (fun _ c -> Format.fprintf ppf "  %a@." File_copy.pp c) s.files
