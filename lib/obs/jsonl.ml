(* [Sys_error] names the file when the open fails and not when a read
   does (a directory opens, then reads "Is a directory"): keep the
   reason alone, so every caller names the file once. *)
let read_file file =
  try Ok (In_channel.with_open_bin file In_channel.input_all)
  with Sys_error m ->
    let prefix = file ^ ": " in
    let n = String.length prefix in
    Error
      (if String.starts_with ~prefix m then String.sub m n (String.length m - n)
       else m)

let lines parse text =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go (lineno + 1) acc rest
    | line :: rest -> (
        match parse line with
        | Ok v -> go (lineno + 1) (v :: acc) rest
        | Error m -> Error (lineno, m))
  in
  go 1 [] (String.split_on_char '\n' text)

let parse parse text =
  Result.map_error
    (fun (lineno, m) -> Printf.sprintf "line %d: %s" lineno m)
    (lines parse text)

let load parse file =
  match read_file file with
  | Error m -> Error (Printf.sprintf "%s: %s" file m)
  | Ok text ->
      Result.map_error
        (fun (lineno, m) -> Printf.sprintf "%s:%d: %s" file lineno m)
        (lines parse text)
