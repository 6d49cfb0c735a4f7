open Vstamp_core

type error = { position : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "at offset %d: %s" e.position e.message

let err position message = Error { position; message }

(* The notation is the paper's: a stamp is "[u|i]"; a name is "ø" (empty),
   or "+"-separated binary strings where the empty string may be written
   as the epsilon glyph (U+03B5) or "e".  Whitespace is allowed around
   tokens. *)

let epsilon_utf8 = "\xce\xb5"

let empty_utf8 = "\xc3\xb8"

let is_space c = c = ' ' || c = '\t'

let skip_spaces s pos =
  let n = String.length s in
  let rec go p = if p < n && is_space s.[p] then go (p + 1) else p in
  go pos

let looking_at s pos token =
  let n = String.length token in
  pos + n <= String.length s && String.sub s pos n = token

(* one name member: a run of 0/1, or an epsilon spelling *)
let parse_member s pos =
  if looking_at s pos epsilon_utf8 then Ok (Bits.epsilon, pos + 2)
  else if looking_at s pos "e" then Ok (Bits.epsilon, pos + 1)
  else
    let n = String.length s in
    let rec go p = if p < n && (s.[p] = '0' || s.[p] = '1') then go (p + 1) else p in
    let stop = go pos in
    if stop = pos then err pos "expected a binary string, 'e' or epsilon"
    else Ok (Bits.of_string (String.sub s pos (stop - pos)), stop)

let parse_name s pos =
  let pos = skip_spaces s pos in
  if looking_at s pos empty_utf8 then Ok (Name_tree.empty, pos + 2)
  else if looking_at s pos "0/" then Ok (Name_tree.empty, pos + 2)
  else
    let rec members pos acc =
      match parse_member s pos with
      | Error e -> Error e
      | Ok (m, pos) ->
          let pos' = skip_spaces s pos in
          if looking_at s pos' "+" then
            members (skip_spaces s (pos' + 1)) (m :: acc)
          else Ok (List.rev (m :: acc), pos)
    in
    match members pos [] with
    | Error e -> Error e
    | Ok (ms, pos) ->
        let name = Name_tree.of_list ms in
        if Name_tree.cardinal name <> List.length ms then
          err pos "not an antichain: a member is a prefix of another"
        else Ok (name, pos)

let name_of_string s =
  match parse_name s 0 with
  | Error e -> Error e
  | Ok (n, pos) ->
      let pos = skip_spaces s pos in
      if pos = String.length s then Ok n else err pos "trailing input"

let parse_stamp s pos =
  let pos = skip_spaces s pos in
  if not (looking_at s pos "[") then err pos "expected '['"
  else
    match parse_name s (pos + 1) with
    | Error e -> Error e
    | Ok (u, pos) ->
        let pos = skip_spaces s pos in
        if not (looking_at s pos "|") then err pos "expected '|'"
        else (
          match parse_name s (pos + 1) with
          | Error e -> Error e
          | Ok (i, pos) ->
              let pos = skip_spaces s pos in
              if not (looking_at s pos "]") then err pos "expected ']'"
              else
                let stamp = Stamp.make_unchecked ~update:u ~id:i in
                if Stamp.well_formed stamp then Ok (stamp, pos + 1)
                else err pos "update component not dominated by id (I1)")

let stamp_of_string s =
  match parse_stamp s 0 with
  | Error e -> Error e
  | Ok (stamp, pos) ->
      let pos = skip_spaces s pos in
      if pos = String.length s then Ok stamp else err pos "trailing input"

let stamp_to_string = Stamp.to_string

let name_to_string = Name_tree.to_string
