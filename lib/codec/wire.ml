open Vstamp_core

type error =
  | Truncated
  | Malformed of string

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated input"
  | Malformed what -> Format.fprintf ppf "malformed input: %s" what

(* Names serialize as their canonical trie, {!Name_tree.t}, which each
   backend hands over through its own view ([Backend.S.to_trie]: the
   identity for the tree backend, a node-for-node walk for the packed
   one, the member list for the others):
     1        -> Node, followed by the left then right subtree
     0 0      -> Empty
     0 1      -> Mark
   The trie of an antichain is unique (it is the prefix tree of the
   members with no [Node (Empty, Empty)]), so the encoding is one-to-one
   with antichains regardless of the in-memory representation: two
   backends holding the same name produce byte-identical output.  The
   bytes must never change, since stored encodings and [vstamp-sync]
   peers depend on them; [test_codec.ml] checks every backend against a
   reference codec that rebuilds each trie from the member list. *)

(* Deepest interior node the decoder accepts, so a member is at most
   [max_depth] bits long.  Without a cap a peer's run of 1 bits recurses
   once per bit.  Real names are far shallower.  The deepest measured
   is 65 bits: an 8-leaf star after 9 rounds, in an 88.7 Mbit stamp.
   The replica-churn scenario peaks at 13 bits in E17's configuration,
   and at 33 bits over 1000 rounds with up to 64 replicas and churn
   rate 4. *)
let max_depth = 1 lsl 16

exception Bad of string

let rec write_tree w = function
  | Name_tree.Empty -> Bitio.Writer.bits w ~value:0b00 ~width:2
  | Name_tree.Mark -> Bitio.Writer.bits w ~value:0b01 ~width:2
  | Name_tree.Node (l, r) ->
      Bitio.Writer.bit w true;
      write_tree w l;
      write_tree w r

(* [depth] counts the interior nodes above the one being read; the cap
   is checked before recursing further. *)
let rec read_tree r depth =
  if Bitio.Reader.bit r then begin
    if depth >= max_depth then raise (Bad "name deeper than the depth cap");
    let l = read_tree r (depth + 1) in
    let right = read_tree r (depth + 1) in
    match (l, right) with
    | Name_tree.Empty, Name_tree.Empty ->
        raise (Bad "node with two empty children")
    | _ -> Name_tree.Node (l, right)
  end
  else if Bitio.Reader.bit r then Name_tree.Mark
  else Name_tree.Empty

module type CODEC = sig
  type name

  type stamp

  val name_to_string : name -> string

  val name_of_string : string -> (name, error) result

  val name_bits : name -> int

  val stamp_to_string : stamp -> string

  val stamp_of_string : ?validate:bool -> string -> (stamp, error) result

  val stamp_bits : stamp -> int
end

module Make (B : Backend.S) = struct
  type name = B.Name.t

  type stamp = B.Stamp.t

  let write_name w n = write_tree w (B.to_trie n)

  let read_name r = B.of_trie (read_tree r 0)

  let name_to_string n =
    let w = Bitio.Writer.create () in
    write_name w n;
    Bitio.Writer.contents w

  let name_bits n =
    let w = Bitio.Writer.create () in
    write_name w n;
    Bitio.Writer.bit_length w

  let name_of_string s =
    match
      let r = Bitio.Reader.of_string s in
      read_name r
    with
    | n when B.Name.well_formed n -> Ok n
    | _ -> Error (Malformed "ill-formed name")
    | exception Bitio.Truncated -> Error Truncated
    | exception Bad what -> Error (Malformed what)

  let write_stamp w s =
    write_name w (B.Stamp.update_name s);
    write_name w (B.Stamp.id s)

  let read_stamp r =
    let u = read_name r in
    let i = read_name r in
    (u, i)

  let stamp_to_string s =
    let w = Bitio.Writer.create () in
    write_stamp w s;
    let bytes = Bitio.Writer.contents w in
    if !Instr.enabled then Instr.note_wire_encode ~bytes:(String.length bytes);
    bytes

  let stamp_bits s =
    let w = Bitio.Writer.create () in
    write_stamp w s;
    Bitio.Writer.bit_length w

  let stamp_of_string ?(validate = true) data =
    match
      let r = Bitio.Reader.of_string data in
      read_stamp r
    with
    | exception Bitio.Truncated -> Error Truncated
    | exception Bad what -> Error (Malformed what)
    | u, i ->
        let s = B.Stamp.make_unchecked ~update:u ~id:i in
        if (not validate) || B.Stamp.well_formed s then begin
          if !Instr.enabled then
            Instr.note_wire_decode ~bytes:(String.length data);
          Ok s
        end
        else Error (Malformed "update component not dominated by id (I1)")
end

include Make (Backend.Over_tree)

(* Version vectors on the wire: entry count, then (id, counter) varint
   pairs.  Used by the E7 size comparison. *)
let write_vv w vv =
  let entries = Vstamp_vv.Version_vector.to_list vv in
  Bitio.Writer.varint w (List.length entries);
  List.iter
    (fun (id, c) ->
      Bitio.Writer.varint w id;
      Bitio.Writer.varint w c)
    entries

let read_vv r =
  let count = Bitio.Reader.varint r in
  if count > 1 lsl 20 then raise Bitio.Truncated;
  let entries =
    List.init count (fun _ ->
        let id = Bitio.Reader.varint r in
        let c = Bitio.Reader.varint r in
        (id, c))
  in
  Vstamp_vv.Version_vector.of_list entries

let vv_to_string vv =
  let w = Bitio.Writer.create () in
  write_vv w vv;
  Bitio.Writer.contents w

let vv_bits vv =
  let w = Bitio.Writer.create () in
  write_vv w vv;
  Bitio.Writer.bit_length w

let vv_of_string data =
  match
    let r = Bitio.Reader.of_string data in
    read_vv r
  with
  | vv -> Ok vv
  | exception Bitio.Truncated -> Error Truncated
