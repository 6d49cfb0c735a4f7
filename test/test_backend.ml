(* The backend table: the keyed set, lookup behaviour, and that the keyed
   implementations (and the list specification, which has no key) agree
   through the Backend.S seam (first-class module access, as the CLI uses
   it). *)

open Vstamp_core

let check_bool = Alcotest.(check bool)

let test_keys () =
  let keys = Backend.keys () in
  List.iter
    (fun k ->
      check_bool (k ^ " keyed") true (List.mem k keys))
    [ "tree"; "packed" ];
  check_bool "list spec has no key" false (List.mem "list" keys);
  Alcotest.(check (list string)) "sorted" (List.sort compare keys) keys;
  check_bool "default key in the table" true
    (List.mem Backend.default_key keys)

let test_find () =
  check_bool "find tree" true (Option.is_some (Backend.find "tree"));
  check_bool "find packed" true (Option.is_some (Backend.find "packed"));
  check_bool "find unknown" true (Option.is_none (Backend.find "bogus"))

let test_get_unknown_raises () =
  match Backend.get "bogus" with
  | _ -> Alcotest.fail "get of unknown key should raise"
  | exception Invalid_argument msg ->
      (* the error must list the valid set, as the CLI surfaces it *)
      check_bool "message names the key" true
        (String.length msg > 0
        && List.for_all
             (fun k ->
               (* crude substring check *)
               let rec has i =
                 i + String.length k <= String.length msg
                 && (String.sub msg i (String.length k) = k || has (i + 1))
               in
               has 0)
             [ "bogus"; "tree" ])

let test_first_class_use () =
  (* drive every keyed backend, and the list specification, through
     the seam exactly the way the CLI and smoke tooling do *)
  List.iter
    (fun (key, impl) ->
      let module B = (val impl : Backend.S) in
      let s = B.Stamp.update B.Stamp.seed in
      let a, b = B.Stamp.fork s in
      let j = B.Stamp.join (B.Stamp.update a) b in
      check_bool (key ^ " well-formed after ops") true (B.Stamp.well_formed j);
      check_bool (key ^ " update visible") true (B.Stamp.has_updates j))
    (("list", (module Backend.Over_list : Backend.S))
    :: List.map (fun key -> (key, Backend.get key)) (Backend.keys ()))

let test_default_is_tree () =
  Alcotest.(check string) "default key" "tree" Backend.default_key;
  let module D = (val Backend.get Backend.default_key) in
  let module T = (val Backend.get "tree") in
  check_bool "default seed equals tree seed"
    true
    (String.equal (D.Stamp.to_string D.Stamp.seed)
       (T.Stamp.to_string T.Stamp.seed))

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "in-tree keys" `Quick test_keys;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "get unknown raises" `Quick
            test_get_unknown_raises;
        ] );
      ( "seam",
        [
          Alcotest.test_case "first-class use" `Quick test_first_class_use;
          Alcotest.test_case "default is tree" `Quick test_default_is_tree;
        ] );
    ]
