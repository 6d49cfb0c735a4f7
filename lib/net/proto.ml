(* The [vstamp-sync/2] message layer inside the frames.

   One frame = one message = a tag byte followed by varint-length-
   prefixed fields.  Stamps travel as opaque strings (the canonical
   {!Vstamp_codec.Wire} encoding, byte-identical across name backends),
   so this layer is backend-agnostic: the node layer owns stamp
   (de)serialization and this one owns structure.

   Decoding is total: any input — truncated, oversized counts,
   bit-flipped tags — comes back as [Error], never an exception.  The
   handshake carries the protocol magic, so a peer speaking anything
   else (a [vstamp-sync/1] peer included) fails loudly at the first
   frame. *)

let version = 2

let magic = "vstamp-sync/" ^ string_of_int version

type hello = { node_id : string; backend : string; proto : int }

type msg =
  | Hello of hello  (** Initiator's opening frame. *)
  | Hello_ack of hello  (** Responder's acceptance. *)
  | Offer of string * (string * string * string) list
      (** Trace header + frontier: (key, stamp, digest) per entry. *)
  | Want of string list  (** Keys whose full entries are needed. *)
  | Items of (string * string * string list) list
      (** Full entries: (key, stamp, values). *)
  | Result of (string * string * string list) list
      (** The initiator's halves, same shape as [Items]; an empty value
          list is a stamp-only half. *)
  | Bye  (** Polite end of session. *)

(* --- primitive writers --- *)

let put_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Proto.put_varint: negative";
  go n

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_list b put xs =
  put_varint b (List.length xs);
  List.iter (put b) xs

(* --- primitive readers ---

   One cursor walks the message, and [Malformed] poisons the whole
   decode.  Nothing is allocated but the strings and lists the message
   holds. *)

exception Malformed

type cursor = { s : string; mutable pos : int }

let rec varint c shift acc =
  if c.pos >= String.length c.s || shift > 56 then raise_notrace Malformed
  else
    let b = Char.code (String.unsafe_get c.s c.pos) in
    c.pos <- c.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint c (shift + 7) acc

let get_varint c = varint c 0 0

(* A string's length or a list's count: neither can exceed the bytes
   left (a list element takes at least one), so an absurd announcement
   is rejected before anything is allocated. *)
let get_count c =
  let n = get_varint c in
  if n < 0 || n > String.length c.s - c.pos then raise_notrace Malformed
  else n

let get_string c =
  let n = get_count c in
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

(* A string that must equal [lit], compared in place. *)
let expect c lit =
  let n = get_count c in
  let rec same i =
    i = n || (c.s.[c.pos + i] = lit.[i] && same (i + 1))
  in
  if n <> String.length lit || not (same 0) then raise_notrace Malformed;
  c.pos <- c.pos + n

let get_list get_elt c =
  let[@tail_mod_cons] rec go i =
    if i = 0 then []
    else
      let v = get_elt c in
      v :: go (i - 1)
  in
  go (get_count c)

(* --- message codec --- *)

let tag = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Offer _ -> 3
  | Want _ -> 4
  | Items _ -> 5
  | Result _ -> 6
  | Bye -> 7

let put_hello b h =
  put_string b magic;
  put_varint b h.proto;
  put_string b h.node_id;
  put_string b h.backend

let put_frontier_entry b (key, stamp, digest) =
  put_string b key;
  put_string b stamp;
  put_string b digest

let put_delta_entry b (key, stamp, values) =
  put_string b key;
  put_string b stamp;
  put_list b put_string values

(* The encoded size, so [encode] fills one buffer of that length and
   never regrows it: growth by doubling from a small buffer copies a
   64 KiB [Items] message through nine ever larger ones. *)
let varint_size n =
  let rec go n bytes = if n < 0x80 then bytes else go (n lsr 7) (bytes + 1) in
  go n 1

let string_size s = varint_size (String.length s) + String.length s

let list_size size xs =
  List.fold_left (fun n x -> n + size x) (varint_size (List.length xs)) xs

let size = function
  | Hello h | Hello_ack h ->
      string_size magic + varint_size h.proto + string_size h.node_id
      + string_size h.backend
  | Offer (header, frontier) ->
      string_size header
      + list_size
          (fun (key, stamp, digest) ->
            string_size key + string_size stamp + string_size digest)
          frontier
  | Want keys -> list_size string_size keys
  | Items entries | Result entries ->
      list_size
        (fun (key, stamp, values) ->
          string_size key + string_size stamp + list_size string_size values)
        entries
  | Bye -> 0

let encode msg =
  let b = Buffer.create (1 + size msg) in
  Buffer.add_char b (Char.chr (tag msg));
  (match msg with
  | Hello h | Hello_ack h -> put_hello b h
  | Offer (header, frontier) ->
      put_string b header;
      put_list b put_frontier_entry frontier
  | Want keys -> put_list b put_string keys
  | Items entries | Result entries -> put_list b put_delta_entry entries
  | Bye -> ());
  Buffer.contents b

let get_hello c =
  expect c magic;
  let proto = get_varint c in
  let node_id = get_string c in
  let backend = get_string c in
  { node_id; backend; proto }

let get_frontier_entry c =
  let key = get_string c in
  let stamp = get_string c in
  let digest = get_string c in
  (key, stamp, digest)

let get_delta_entry c =
  let key = get_string c in
  let stamp = get_string c in
  let values = get_list get_string c in
  (key, stamp, values)

let decode s =
  if String.length s < 1 then Error "empty message"
  else
    let c = { s; pos = 1 } in
    let body () =
      match Char.code s.[0] with
      | 1 -> Some (Hello (get_hello c))
      | 2 -> Some (Hello_ack (get_hello c))
      | 3 ->
          let header = get_string c in
          Some (Offer (header, get_list get_frontier_entry c))
      | 4 -> Some (Want (get_list get_string c))
      | 5 -> Some (Items (get_list get_delta_entry c))
      | 6 -> Some (Result (get_list get_delta_entry c))
      | 7 -> Some Bye
      | _ -> None
    in
    match body () with
    | Some msg when c.pos = String.length s -> Ok msg
    | Some _ | (exception Malformed) -> Error "malformed message"
    | None -> Error (Printf.sprintf "unknown message tag %d" (Char.code s.[0]))
