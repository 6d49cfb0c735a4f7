(* Stamp operations in the paper's text notation: the figures, relate,
   update/fork/join/reduce, frontier, and the wire encoding. *)

open Cmdliner
open Vstamp_core
open Vstamp_sim
open Common

(* --- figures --- *)

let figures () =
  let f1 = Scenario.Fig1.run () in
  Format.printf "Figure 1 (version vectors): %s@."
    (if Scenario.Fig1.matches_paper f1 then "reproduced" else "MISMATCH");
  List.iter
    (fun (name, v) ->
      Format.printf "  %s final: %a@." name Vstamp_vv.Version_vector.pp v)
    f1.Scenario.Fig1.final;
  let f4 = Scenario.Fig4.run () in
  Format.printf "Figures 2+4 (version stamps): %s@."
    (if Scenario.Fig4.matches_paper f4 then "reproduced" else "MISMATCH");
  List.iter
    (fun (name, s) -> Format.printf "  %-3s %a@." name Stamp.pp s)
    f4.Scenario.Fig4.named_steps;
  Format.printf "  rewrite chain: %s@."
    (String.concat " -> "
       (List.map Stamp.to_string f4.Scenario.Fig4.g_reduction_chain));
  let f3 = Scenario.Fig3.run () in
  Format.printf "Figure 3 (encoding fixed replicas): %s@."
    (if Scenario.Fig3.encodings_agree f3 then "orders agree" else "MISMATCH")

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures and check them")
    Term.(const figures $ const ())

(* --- relate and the stamp operations --- *)

let stamp_pos n docv =
  Arg.(required & pos n (some stamp_conv) None & info [] ~docv)

let relate a b =
  Format.printf "%a vs %a: %s@." Stamp.pp a Stamp.pp b
    (Relation.to_paper_string (Stamp.relation a b))

let relate_cmd =
  Cmd.v
    (Cmd.info "relate"
       ~doc:
         "Classify two coexisting stamps (equivalent / obsolete / \
          inconsistent), e.g. vstamp relate '[1|1]' '[e|0]'")
    Term.(const relate $ stamp_pos 0 "STAMP1" $ stamp_pos 1 "STAMP2")

let print_stamp s = Format.printf "%a@." Stamp.pp s

let update_cmd =
  Cmd.v
    (Cmd.info "update" ~doc:"Apply the update operation to STAMP")
    Term.(const (fun s -> print_stamp (Stamp.update s)) $ stamp_pos 0 "STAMP")

let fork_cmd =
  let fork s =
    let l, r = Stamp.fork s in
    print_stamp l;
    print_stamp r
  in
  Cmd.v
    (Cmd.info "fork" ~doc:"Fork STAMP; prints the two resulting stamps")
    Term.(const fork $ stamp_pos 0 "STAMP")

let join_cmd =
  let no_reduce =
    Arg.(value & flag & info [ "no-reduce" ] ~doc:"Skip Section 6 reduction")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Join two stamps")
    Term.(const (fun nr a b -> print_stamp (Stamp.join ~reduce:(not nr) a b))
          $ no_reduce $ stamp_pos 0 "STAMP1" $ stamp_pos 1 "STAMP2")

let reduce_cmd =
  Cmd.v
    (Cmd.info "reduce" ~doc:"Rewrite STAMP to its Section 6 normal form")
    Term.(const (fun s -> print_stamp (Stamp.reduce s)) $ stamp_pos 0 "STAMP")

(* --- frontier --- *)

let frontier stamps =
  let f = Frontier.of_list stamps in
  if not (Vstamp_core.Invariants.i2 stamps) then
    Format.printf
      "warning: these stamps do not form a valid frontier (I2 fails);@ answers below describe name order only@.";
  List.iteri
    (fun i s ->
      let status =
        if List.memq s (Frontier.obsolete f) then "obsolete"
        else if List.exists (fun (a, b) -> a == s || b == s) (Frontier.conflicts f)
        then "in conflict"
        else "dominant"
      in
      Format.printf "%d: %a  %s@." i Stamp.pp s status)
    stamps;
  Format.printf "conflict pairs: %d; all equivalent: %b@."
    (List.length (Frontier.conflicts f))
    (Frontier.all_equivalent f)

let frontier_cmd =
  let stamps =
    Arg.(non_empty & pos_all stamp_conv [] & info [] ~docv:"STAMP...")
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Classify a whole frontier of stamps: dominant / obsolete / conflicts")
    Term.(const frontier $ stamps)

(* --- encode / decode --- *)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex s =
  if String.length s mod 2 <> 0 then Error (`Msg "odd-length hex string")
  else
    try
      Ok
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error (`Msg "invalid hex string")

let encode s =
  let bytes = Vstamp_codec.Wire.stamp_to_string s in
  Format.printf "%s (%d bits)@." (to_hex bytes) (Vstamp_codec.Wire.stamp_bits s)

let encode_cmd =
  Cmd.v
    (Cmd.info "encode" ~doc:"Wire-encode STAMP as hex")
    Term.(const encode $ stamp_pos 0 "STAMP")

let decode hex =
  match Vstamp_codec.Wire.stamp_of_string (or_die (of_hex hex)) with
  | Ok s -> print_stamp s
  | Error e -> die "%a" Vstamp_codec.Wire.pp_error e

let decode_cmd =
  let hex = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX") in
  Cmd.v
    (Cmd.info "decode" ~doc:"Decode a hex wire encoding into a stamp")
    Term.(const decode $ hex)
