open Vstamp_core
open Vstamp_codec

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- Bitio --- *)

let test_bit_roundtrip () =
  let w = Bitio.Writer.create () in
  List.iter (Bitio.Writer.bit w) [ true; false; true; true; false ];
  check_int "bit_length" 5 (Bitio.Writer.bit_length w);
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  List.iter
    (fun expected -> check_bool "bit" expected (Bitio.Reader.bit r))
    [ true; false; true; true; false ]

let test_bits_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w ~value:0b1011 ~width:4;
  Bitio.Writer.bits w ~value:0 ~width:3;
  Bitio.Writer.bits w ~value:12345 ~width:20;
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  check_int "4 bits" 0b1011 (Bitio.Reader.bits r ~width:4);
  check_int "3 bits" 0 (Bitio.Reader.bits r ~width:3);
  check_int "20 bits" 12345 (Bitio.Reader.bits r ~width:20)

let test_varint_roundtrip () =
  let values = [ 0; 1; 15; 16; 255; 256; 65535; 1 lsl 30 ] in
  let w = Bitio.Writer.create () in
  List.iter (Bitio.Writer.varint w) values;
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  List.iter (fun v -> check_int "varint" v (Bitio.Reader.varint r)) values

(* A varint's groups must fit a non-negative int.  An input whose last
   group overflows into the sign bit once decoded to a negative entry
   count, and [Wire.vv_of_string] raised from [List.init]. *)
let test_varint_overflow () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.varint w max_int;
  check_int "max_int round trips" max_int
    (Bitio.Reader.varint (Bitio.Reader.of_string (Bitio.Writer.contents w)));
  let w = Bitio.Writer.create () in
  for _ = 1 to 15 do
    Bitio.Writer.bits w ~value:0b10000 ~width:5
  done;
  Bitio.Writer.bits w ~value:0b00100 ~width:5;
  Alcotest.check_raises "overflowing group" Bitio.Truncated (fun () ->
      ignore
        (Bitio.Reader.varint (Bitio.Reader.of_string (Bitio.Writer.contents w))));
  match Wire.vv_of_string "\x84\x61\x68\xc2\x70\x84\x61\x5f\xc2\x84" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an overflowing count should not decode"

let test_varint_sizes () =
  check_int "small varint is 5 bits" 5 (Bitio.round_trip_bits 7);
  check_int "16 needs two groups" 10 (Bitio.round_trip_bits 16)

let test_truncated () =
  let r = Bitio.Reader.of_string "" in
  Alcotest.check_raises "empty" Bitio.Truncated (fun () ->
      ignore (Bitio.Reader.bit r));
  let r = Bitio.Reader.of_string "\xff" in
  check_int "remaining" 8 (Bitio.Reader.remaining_bits r);
  ignore (Bitio.Reader.bits r ~width:8);
  Alcotest.check_raises "past end" Bitio.Truncated (fun () ->
      ignore (Bitio.Reader.bit r))

let test_writer_validation () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Bitio.Writer.varint: negative") (fun () ->
      Bitio.Writer.varint w (-1));
  Alcotest.check_raises "negative bits"
    (Invalid_argument "Bitio.Writer.bits: negative value") (fun () ->
      Bitio.Writer.bits w ~value:(-1) ~width:4)

(* --- Wire: names --- *)

let names =
  List.map Name_tree.of_strings
    [
      [];
      [ "" ];
      [ "0" ];
      [ "1" ];
      [ "0"; "1" ];
      [ "00"; "01"; "1" ];
      [ "000"; "010"; "011"; "10" ];
      [ "010101" ];
    ]

let test_wire_name_roundtrip () =
  List.iter
    (fun n ->
      match Wire.name_of_string (Wire.name_to_string n) with
      | Ok n' ->
          check_bool
            ("round trip " ^ Name_tree.to_string n)
            true (Name_tree.equal n n')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    names

let test_wire_name_sizes () =
  check_int "empty is 2 bits" 2 (Wire.name_bits Name_tree.empty);
  check_int "bottom is 2 bits" 2 (Wire.name_bits Name_tree.bottom);
  (* {0,1} = Node(Mark,Mark): 1 + 2 + 2 *)
  check_int "{0,1} is 5 bits" 5 (Wire.name_bits (Name_tree.of_strings [ "0"; "1" ]))

let test_wire_name_truncated () =
  match Wire.name_of_string "" with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

(* --- Wire: stamps --- *)

let stamps =
  let n = Name_tree.of_strings in
  [
    Stamp.seed;
    Stamp.make ~update:(n [ "1" ]) ~id:(n [ "01"; "1" ]);
    Stamp.make ~update:(n []) ~id:(n [ "0" ]);
    Stamp.make ~update:(n [ "00"; "01" ]) ~id:(n [ "00"; "01"; "1" ]);
  ]

let test_wire_stamp_roundtrip () =
  List.iter
    (fun s ->
      match Wire.stamp_of_string (Wire.stamp_to_string s) with
      | Ok s' ->
          check_bool ("round trip " ^ Stamp.to_string s) true (Stamp.equal s s')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    stamps

let test_wire_stamp_rejects_bad_i1 () =
  let bad =
    Stamp.make_unchecked
      ~update:(Name_tree.of_strings [ "0" ])
      ~id:(Name_tree.of_strings [ "1" ])
  in
  (match Wire.stamp_of_string (Wire.stamp_to_string bad) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed");
  match Wire.stamp_of_string ~validate:false (Wire.stamp_to_string bad) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "validation off should accept"

let test_wire_stamp_bits_close_to_size () =
  (* encoded size tracks the structural size metric *)
  List.iter
    (fun s ->
      let bits = Wire.stamp_bits s in
      check_bool "within structural bound" true
        (bits <= (4 * (Stamp.size_bits s + 4)) && bits >= 4))
    stamps

(* --- Wire: backend genericity --- *)

module Wire_list = Wire.Make (Backend.Over_list)
module Wire_packed = Wire.Make (Backend.Over_packed)

let as_list_stamp s =
  Stamp.Over_list.make_unchecked
    ~update:(Name.of_list (Name_tree.to_list (Stamp.update_name s)))
    ~id:(Name.of_list (Name_tree.to_list (Stamp.id s)))

let as_packed_stamp s =
  Stamp.Over_packed.make_unchecked
    ~update:(Name_packed.of_list (Name_tree.to_list (Stamp.update_name s)))
    ~id:(Name_packed.of_list (Name_tree.to_list (Stamp.id s)))

(* regression for the codec/backend coupling: the wire bytes are a
   function of the antichain, never of the in-memory representation *)
let test_wire_backend_byte_identity () =
  List.iter
    (fun s ->
      let tree_bytes = Wire.stamp_to_string s in
      Alcotest.(check string)
        ("list bytes for " ^ Stamp.to_string s)
        tree_bytes
        (Wire_list.stamp_to_string (as_list_stamp s));
      Alcotest.(check string)
        ("packed bytes for " ^ Stamp.to_string s)
        tree_bytes
        (Wire_packed.stamp_to_string (as_packed_stamp s)))
    stamps

let test_wire_list_stamp_roundtrip () =
  List.iter
    (fun s ->
      let l = as_list_stamp s in
      let bytes = Wire_list.stamp_to_string l in
      match Wire_list.stamp_of_string bytes with
      | Ok l' ->
          check_bool
            ("round trip " ^ Stamp.to_string s)
            true
            (Stamp.Over_list.equal l l');
          Alcotest.(check string)
            "re-encode is byte-identical" bytes
            (Wire_list.stamp_to_string l')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    stamps

let test_wire_cross_backend_decode () =
  (* bytes written by one backend decode under any other *)
  List.iter
    (fun s ->
      let bytes = Wire.stamp_to_string s in
      (match Wire_packed.stamp_of_string bytes with
      | Ok p ->
          check_bool "packed decodes tree bytes" true
            (Stamp.Over_packed.equal p (as_packed_stamp s))
      | Error e -> Alcotest.failf "packed decode failed: %a" Wire.pp_error e);
      match Wire_list.stamp_of_string bytes with
      | Ok l ->
          check_bool "list decodes tree bytes" true
            (Stamp.Over_list.equal l (as_list_stamp s))
      | Error e -> Alcotest.failf "list decode failed: %a" Wire.pp_error e)
    stamps

let test_wire_list_rejects_bad_i1 () =
  let bad =
    Stamp.Over_list.make_unchecked
      ~update:(Name.of_strings [ "0" ])
      ~id:(Name.of_strings [ "1" ])
  in
  let bytes = Wire_list.stamp_to_string bad in
  (match Wire_list.stamp_of_string ~validate:true bytes with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed under validation");
  match Wire_list.stamp_of_string ~validate:false bytes with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "validation off should accept"

(* --- Wire: the reference codec --- *)

(* The member-list codec the trie view replaced, kept as the reference
   the fast path must match: every name goes to its member list, a trie
   is rebuilt from the members and written one bit at a time, and the
   decoder turns the trie back into members. *)
module Wire_ref (B : Backend.S) = struct
  type trie = Empty | Mark | Node of trie * trie

  let rec trie_of_members = function
    | [] -> Empty
    | [ s ] when Bits.is_epsilon s -> Mark
    | members ->
        let zeros, ones =
          List.fold_left
            (fun (zs, os) s ->
              match Bits.uncons s with
              | Some (Bits.Zero, rest) -> (rest :: zs, os)
              | Some (Bits.One, rest) -> (zs, rest :: os)
              | None -> (zs, os))
            ([], []) members
        in
        Node (trie_of_members (List.rev zeros), trie_of_members (List.rev ones))

  let rec members_of_trie path acc = function
    | Empty -> acc
    | Mark -> Bits.of_digits (List.rev path) :: acc
    | Node (l, r) ->
        let acc = members_of_trie (Bits.Zero :: path) acc l in
        members_of_trie (Bits.One :: path) acc r

  let rec write_trie w = function
    | Empty ->
        Bitio.Writer.bit w false;
        Bitio.Writer.bit w false
    | Mark ->
        Bitio.Writer.bit w false;
        Bitio.Writer.bit w true
    | Node (l, r) ->
        Bitio.Writer.bit w true;
        write_trie w l;
        write_trie w r

  let rec read_trie r =
    if Bitio.Reader.bit r then begin
      let l = read_trie r in
      let right = read_trie r in
      if l = Empty && right = Empty then failwith "node with two empty children"
      else Node (l, right)
    end
    else if Bitio.Reader.bit r then Mark
    else Empty

  let write_name w n = write_trie w (trie_of_members (B.Name.to_list n))

  let read_name r = B.Name.of_list (members_of_trie [] [] (read_trie r))

  let name_of_string s =
    match read_name (Bitio.Reader.of_string s) with
    | n when B.Name.well_formed n -> Ok n
    | _ -> Error (Wire.Malformed "ill-formed name")
    | exception Bitio.Truncated -> Error Wire.Truncated
    | exception Failure _ ->
        Error (Wire.Malformed "node with two empty children")

  let write_stamp s =
    let w = Bitio.Writer.create () in
    write_name w (B.Stamp.update_name s);
    write_name w (B.Stamp.id s);
    w

  let stamp_to_string s = Bitio.Writer.contents (write_stamp s)

  let stamp_bits s = Bitio.Writer.bit_length (write_stamp s)

  let stamp_of_string data =
    match
      let r = Bitio.Reader.of_string data in
      let u = read_name r in
      (u, read_name r)
    with
    | exception Bitio.Truncated -> Error Wire.Truncated
    | exception Failure _ ->
        Error (Wire.Malformed "node with two empty children")
    | u, i ->
        let s = B.Stamp.make_unchecked ~update:u ~id:i in
        if B.Stamp.well_formed s then Ok s
        else Error (Wire.Malformed "update component not dominated by id (I1)")
end

(* One property pair per keyed backend: along random traces run in
   that backend, the codec writes the reference's bytes and decodes them
   back to the stamp; on random bytes both decoders give the same
   result. *)
let props_match_reference (e : Backend.entry) =
  let module B = (val e.impl) in
  let module C = Wire.Make (B) in
  let module R = Wire_ref (B) in
  let module Subjects = Execution.Stamp_subject (B.Stamp) in
  let module Subject = (val Subjects.make ~reduce:true) in
  let module Run = Execution.Run (Subject) in
  let same_result equal a b =
    match (a, b) with
    | Ok x, Ok y -> equal x y
    | Error e1, Error e2 -> e1 = e2
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  [
    QCheck2.Test.make
      ~name:(e.key ^ ": wire bytes equal the reference along traces")
      ~count:100 ~print:Vstamp_test_support.Gen.trace_print
      (Vstamp_test_support.Gen.trace ())
      (fun ops ->
        List.for_all
          (fun s ->
            let bytes = C.stamp_to_string s in
            String.equal bytes (R.stamp_to_string s)
            && C.stamp_bits s = R.stamp_bits s
            &&
            match C.stamp_of_string bytes with
            | Ok s' -> B.Stamp.equal s s'
            | Error _ -> false)
          (List.concat (Run.run_steps ops)));
    QCheck2.Test.make
      ~name:(e.key ^ ": wire decoders agree with the reference on random bytes")
      ~count:1000
      QCheck2.Gen.(map Bytes.unsafe_to_string (bytes_size (int_bound 24)))
      (fun input ->
        same_result B.Stamp.equal (C.stamp_of_string input)
          (R.stamp_of_string input)
        && same_result B.Name.equal (C.name_of_string input)
             (R.name_of_string input));
  ]

(* every keyed backend, and the list specification, which has no key *)
let checked_entries =
  { Backend.key = "list"; impl = (module Backend.Over_list) }
  :: Backend.entries ()

(* --- Wire: the decoder's depth cap --- *)

let zeros n = Name_tree.singleton (Bits.of_string (String.make n '0'))

let test_wire_depth_cap () =
  let at_cap = zeros Wire.max_depth and past_cap = zeros (Wire.max_depth + 1) in
  (match Wire.name_of_string (Wire.name_to_string at_cap) with
  | Ok n -> check_bool "a member of max_depth bits decodes" true (Name_tree.equal n at_cap)
  | Error e -> Alcotest.failf "decode at the cap failed: %a" Wire.pp_error e);
  (match Wire.name_of_string (Wire.name_to_string past_cap) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "a member past the cap should be Malformed");
  let deep = Stamp.make ~update:past_cap ~id:past_cap in
  match Wire.stamp_of_string (Wire.stamp_to_string deep) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "a stamp past the cap should be Malformed"

(* A run of 1 bits would descend once per bit; the cap stops it long
   before the input ends, so this is Malformed, not Truncated. *)
let test_wire_ones_malformed () =
  match Wire.stamp_of_string (String.make (1 lsl 20) '\xff') with
  | Error (Wire.Malformed _) -> ()
  | Error Wire.Truncated -> Alcotest.fail "expected Malformed, got Truncated"
  | Ok _ -> Alcotest.fail "expected Malformed"

(* --- Wire: version vectors --- *)

let test_wire_vv_roundtrip () =
  let open Vstamp_vv in
  List.iter
    (fun entries ->
      let vv = Version_vector.of_list entries in
      match Wire.vv_of_string (Wire.vv_to_string vv) with
      | Ok vv' -> check_bool "round trip" true (Version_vector.equal vv vv')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    [ []; [ (0, 1) ]; [ (0, 2); (3, 1); (17, 300) ] ]

(* --- Text --- *)

let test_text_print_parse () =
  List.iter
    (fun s ->
      match Text.stamp_of_string (Text.stamp_to_string s) with
      | Ok s' -> check_bool (Stamp.to_string s) true (Stamp.equal s s')
      | Error e -> Alcotest.failf "parse failed: %a" Text.pp_error e)
    stamps

let test_text_inputs () =
  let ok input expected =
    match Text.stamp_of_string input with
    | Ok s -> Alcotest.(check string) input expected (Stamp.to_string s)
    | Error e -> Alcotest.failf "parse of %S failed: %a" input Text.pp_error e
  in
  ok "[e|e]" "[\xce\xb5|\xce\xb5]";
  ok "[\xce\xb5|\xce\xb5]" "[\xce\xb5|\xce\xb5]";
  ok "[1|01+1]" "[1|01+1]";
  ok "[ 1 | 00 + 01 + 1 ]" "[1|00+01+1]";
  ok "[0/|0]" "[\xc3\xb8|0]";
  ok "[\xc3\xb8|0]" "[\xc3\xb8|0]"

let test_text_rejects () =
  let fails input =
    match Text.stamp_of_string input with
    | Error _ -> ()
    | Ok s -> Alcotest.failf "%S should not parse, got %s" input (Stamp.to_string s)
  in
  fails "";
  fails "[e|e";
  fails "e|e]";
  fails "[e e]";
  fails "[2|1]";
  fails "[0|1]" (* violates I1 *);
  fails "[e|0+01]" (* not an antichain *);
  fails "[e|e] trailing"

let test_text_name () =
  (match Text.name_of_string "00+01+1" with
  | Ok n -> Alcotest.(check string) "name" "00+01+1" (Text.name_to_string n)
  | Error e -> Alcotest.failf "parse failed: %a" Text.pp_error e);
  match Text.name_of_string "0+01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-antichain should be rejected"

(* --- properties --- *)

let prop_wire_name_roundtrip =
  QCheck2.Test.make ~name:"wire name round trip" ~count:500
    (Vstamp_test_support.Gen.name_tree ())
    (fun n ->
      match Wire.name_of_string (Wire.name_to_string n) with
      | Ok n' -> Name_tree.equal n n'
      | Error _ -> false)

let prop_wire_name_canonical =
  QCheck2.Test.make ~name:"wire encoding is canonical (re-encode identical)"
    ~count:500
    (Vstamp_test_support.Gen.name_tree ())
    (fun n ->
      let enc = Wire.name_to_string n in
      match Wire.name_of_string enc with
      | Ok n' -> String.equal enc (Wire.name_to_string n')
      | Error _ -> false)

let prop_wire_stamp_roundtrip_traces =
  QCheck2.Test.make ~name:"wire stamp round trip along traces" ~count:200
    ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun s ->
          match Wire.stamp_of_string (Wire.stamp_to_string s) with
          | Ok s' -> Stamp.equal s s'
          | Error _ -> false)
        (Execution.Run_stamps.run ops))

let prop_text_roundtrip =
  QCheck2.Test.make ~name:"text stamp round trip along traces" ~count:200
    ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun s ->
          match Text.stamp_of_string (Text.stamp_to_string s) with
          | Ok s' -> Stamp.equal s s'
          | Error _ -> false)
        (Execution.Run_stamps.run ops))

let prop_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round trip" ~count:500
    QCheck2.Gen.(int_bound ((1 lsl 30) - 1))
    (fun v ->
      let w = Bitio.Writer.create () in
      Bitio.Writer.varint w v;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      Bitio.Reader.varint r = v)

(* [Writer.bits] shifts a whole field into the accumulator; it must
   write exactly what one [Writer.bit] per bit writes, for every width
   (including the fields wider than 55 bits it splits in two), and
   [Reader.bits] must read each field back. *)
let prop_bits_match_bit_by_bit =
  let field =
    QCheck2.Gen.(
      pair (int_bound 62) (map (fun v -> v land max_int) int))
  in
  QCheck2.Test.make ~name:"Writer.bits matches bit-by-bit writes" ~count:500
    QCheck2.Gen.(list_size (int_bound 20) field)
    (fun fields ->
      let fast = Bitio.Writer.create () and slow = Bitio.Writer.create () in
      List.iter
        (fun (width, value) ->
          Bitio.Writer.bits fast ~value ~width;
          for i = width - 1 downto 0 do
            Bitio.Writer.bit slow ((value lsr i) land 1 = 1)
          done)
        fields;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents fast) in
      String.equal (Bitio.Writer.contents fast) (Bitio.Writer.contents slow)
      && Bitio.Writer.bit_length fast = Bitio.Writer.bit_length slow
      && List.for_all
           (fun (width, value) ->
             Bitio.Reader.bits r ~width = value land ((1 lsl width) - 1))
           fields)

let () =
  Alcotest.run "codec"
    [
      ( "bitio",
        [
          Alcotest.test_case "bit round trip" `Quick test_bit_roundtrip;
          Alcotest.test_case "bits round trip" `Quick test_bits_roundtrip;
          Alcotest.test_case "varint round trip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint sizes" `Quick test_varint_sizes;
          Alcotest.test_case "varint overflow" `Quick test_varint_overflow;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "writer validation" `Quick test_writer_validation;
        ] );
      ( "wire",
        [
          Alcotest.test_case "name round trip" `Quick test_wire_name_roundtrip;
          Alcotest.test_case "name sizes" `Quick test_wire_name_sizes;
          Alcotest.test_case "name truncated" `Quick test_wire_name_truncated;
          Alcotest.test_case "stamp round trip" `Quick test_wire_stamp_roundtrip;
          Alcotest.test_case "stamp rejects bad I1" `Quick
            test_wire_stamp_rejects_bad_i1;
          Alcotest.test_case "stamp bits sane" `Quick
            test_wire_stamp_bits_close_to_size;
          Alcotest.test_case "vv round trip" `Quick test_wire_vv_roundtrip;
        ] );
      ( "wire backends",
        [
          Alcotest.test_case "byte identity across backends" `Quick
            test_wire_backend_byte_identity;
          Alcotest.test_case "list stamp round trip" `Quick
            test_wire_list_stamp_roundtrip;
          Alcotest.test_case "cross-backend decode" `Quick
            test_wire_cross_backend_decode;
          Alcotest.test_case "list rejects bad I1" `Quick
            test_wire_list_rejects_bad_i1;
        ] );
      ( "wire depth",
        [
          Alcotest.test_case "member past the cap is malformed" `Quick
            test_wire_depth_cap;
          Alcotest.test_case "1 MiB of ones is malformed" `Quick
            test_wire_ones_malformed;
        ] );
      ( "wire vs ref",
        List.map QCheck_alcotest.to_alcotest
          (List.concat_map props_match_reference checked_entries) );
      ( "text",
        [
          Alcotest.test_case "print/parse" `Quick test_text_print_parse;
          Alcotest.test_case "accepted inputs" `Quick test_text_inputs;
          Alcotest.test_case "rejected inputs" `Quick test_text_rejects;
          Alcotest.test_case "names" `Quick test_text_name;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_wire_name_roundtrip;
            prop_wire_name_canonical;
            prop_wire_stamp_roundtrip_traces;
            prop_text_roundtrip;
            prop_varint_roundtrip;
            prop_bits_match_bit_by_bit;
          ] );
    ]
