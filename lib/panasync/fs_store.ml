(* Persistence: a store is a directory of plain files plus a ".vstamp"
   subdirectory holding, per file, one line with the hex-encoded wire
   stamp and one line with the hex lineage tag.  A file with no recorded
   metadata is adopted as newly created — which is the right semantics:
   to the tracking layer it IS a new lineage. *)

type error =
  | Not_a_directory of string
  | Io_error of string
  | Bad_stamp of { path : string; detail : string }

let pp_error ppf = function
  | Not_a_directory d -> Format.fprintf ppf "%s is not a directory" d
  | Io_error m -> Format.fprintf ppf "I/O error: %s" m
  | Bad_stamp { path; detail } ->
      Format.fprintf ppf "corrupt stamp for %s: %s" path detail

let meta_dir dir = Filename.concat dir ".vstamp"

let stamp_file dir path = Filename.concat (meta_dir dir) (path ^ ".stamp")

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex s =
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> None

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* Logical paths are flat file names; anything else (subdirectories,
   the metadata directory itself) is ignored by design. *)
let data_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         (not (String.equal f ".vstamp"))
         && not (Sys.is_directory (Filename.concat dir f)))
  |> List.sort compare

let load ~dir ~name =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Not_a_directory dir)
  else
    try
      let read file =
        match Vstamp_obs.Jsonl.read_file file with
        | Ok text -> text
        | Error m -> failwith (file ^ ": " ^ m)
      in
      let store =
        List.fold_left
          (fun store path ->
            let content = read (Filename.concat dir path) in
            let sf = stamp_file dir path in
            if Sys.file_exists sf then begin
              let bad detail =
                raise
                  (Failure
                     (Format.asprintf "%a" pp_error (Bad_stamp { path; detail })))
              in
              match
                String.split_on_char '\n' (String.trim (read sf))
              with
              | [ stamp_hex; lineage_hex ] -> (
                  match (of_hex stamp_hex, of_hex lineage_hex) with
                  | Some wire, Some lineage -> (
                      match Vstamp_codec.Wire.stamp_of_string wire with
                      | Ok stamp ->
                          Store.set store
                            (File_copy.restore ~path ~content ~stamp ~lineage)
                      | Error e ->
                          bad (Format.asprintf "%a" Vstamp_codec.Wire.pp_error e))
                  | _ -> bad "invalid hex")
              | _ -> bad "expected stamp and lineage lines"
            end
            else Store.add_new store ~path ~content)
          (Store.create ~name) (data_files dir)
      in
      Ok store
    with
    | Failure m -> Error (Io_error m)
    | Sys_error m -> Error (Io_error m)

let save ~dir store =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    if not (Sys.is_directory dir) then Error (Not_a_directory dir)
    else begin
      let meta = meta_dir dir in
      if not (Sys.file_exists meta) then Sys.mkdir meta 0o755;
      (* remove data and stamps for files no longer present *)
      let keep = Store.paths store in
      List.iter
        (fun f ->
          if not (List.mem f keep) then begin
            Sys.remove (Filename.concat dir f);
            let sf = stamp_file dir f in
            if Sys.file_exists sf then Sys.remove sf
          end)
        (data_files dir);
      Store.fold
        (fun copy () ->
          let path = File_copy.path copy in
          write_file (Filename.concat dir path) (File_copy.content copy);
          write_file (stamp_file dir path)
            (to_hex (Vstamp_codec.Wire.stamp_to_string (File_copy.stamp copy))
            ^ "\n"
            ^ to_hex (File_copy.lineage copy)))
        store ();
      Ok ()
    end
  with Sys_error m -> Error (Io_error m)
