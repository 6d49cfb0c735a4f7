open Vstamp_core

type error = { position : int; message : string }

let pp_error ppf e = Format.fprintf ppf "op %d: %s" e.position e.message

let to_string ops = String.concat ";" (List.map Execution.op_to_string ops)

(* Grammar: ops separated by ';' (whitespace allowed), each one of
   update(I) | fork(I) | join(I,J).  Empty input is the empty trace. *)
let parse_op pos token =
  let token = String.trim token in
  let fail message = Error { position = pos; message } in
  let parse_args name body k =
    match String.index_opt body '(' with
    | Some 0 when String.length body >= 2 && body.[String.length body - 1] = ')'
      ->
        k (String.sub body 1 (String.length body - 2))
    | _ -> fail (Printf.sprintf "expected %s(...)" name)
  in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some i when i >= 0 -> Ok i
    | _ -> fail (Printf.sprintf "bad index %S" s)
  in
  if String.length token >= 6 && String.sub token 0 6 = "update" then
    parse_args "update"
      (String.sub token 6 (String.length token - 6))
      (fun body ->
        Result.map (fun i -> Execution.Update i) (int_of body))
  else if String.length token >= 4 && String.sub token 0 4 = "fork" then
    parse_args "fork"
      (String.sub token 4 (String.length token - 4))
      (fun body -> Result.map (fun i -> Execution.Fork i) (int_of body))
  else if String.length token >= 4 && String.sub token 0 4 = "join" then
    parse_args "join"
      (String.sub token 4 (String.length token - 4))
      (fun body ->
        match String.split_on_char ',' body with
        | [ a; b ] ->
            Result.bind (int_of a) (fun i ->
                Result.map (fun j -> Execution.Join (i, j)) (int_of b))
        | _ -> fail "join needs two indices")
  else fail (Printf.sprintf "unknown operation %S" token)

let of_string input =
  let tokens =
    String.split_on_char ';' input
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let rec go pos acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest -> (
        match parse_op pos t with
        | Ok op -> go (pos + 1) (op :: acc) rest
        | Error e -> Error e)
  in
  match go 0 [] tokens with
  | Error e -> Error e
  | Ok ops ->
      (* locate the first invalid op for a precise report *)
      let rec check pos size = function
        | [] -> Ok ops
        | op :: rest ->
            if Execution.op_valid ~frontier_size:size op then
              check (pos + 1) (size + Execution.size_delta op) rest
            else
              Error
                {
                  position = pos;
                  message =
                    Printf.sprintf "%s invalid at frontier size %d"
                      (Execution.op_to_string op)
                      size;
                }
      in
      check 0 1 ops

let save ~file ops =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string ops);
      output_char oc '\n')

let load ~file =
  match Vstamp_obs.Jsonl.read_file file with
  | Ok content -> of_string (String.trim content)
  | Error m -> raise (Sys_error (file ^ ": " ^ m))

let stats ops =
  let u, f, j =
    List.fold_left
      (fun (u, f, j) -> function
        | Execution.Update _ -> (u + 1, f, j)
        | Execution.Fork _ -> (u, f + 1, j)
        | Execution.Join _ -> (u, f, j + 1))
      (0, 0, 0) ops
  in
  (u, f, j)
