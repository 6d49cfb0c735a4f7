(* The [vstamp-sync/2] wire: framing and message codec totality under
   hostile input (truncation, oversized length announcements, bit
   flips), handshake rejection semantics, and real-TCP convergence of
   [Vstamp_net.Node] replicas on loopback. *)

open Vstamp_net
module Registry = Vstamp_obs.Registry
module Metric = Vstamp_obs.Metric
module N = Node.Make (Vstamp_core.Backend.Over_tree)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- framing --- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode (Frame.encode payload) with
      | Ok (p, consumed) ->
          Alcotest.(check string) "payload" payload p;
          check_int "consumed" (Frame.header_len + String.length payload) consumed
      | Error e -> Alcotest.failf "roundtrip failed: %a" Frame.pp_error e)
    [ ""; "x"; String.make 1000 '\xff'; Proto.encode Proto.Bye ]

let test_frame_truncated () =
  let wire = Frame.encode "hello world" in
  for cut = 0 to String.length wire - 1 do
    match Frame.decode (String.sub wire 0 cut) with
    | Error Frame.Truncated -> ()
    | Ok _ -> Alcotest.failf "cut at %d decoded" cut
    | Error e -> Alcotest.failf "cut at %d: %a" cut Frame.pp_error e
  done

let test_frame_oversized () =
  (* a header announcing more than the cap must be rejected before any
     allocation of that size *)
  let huge = "\x7f\xff\xff\xff" ^ "payload" in
  match Frame.decode huge with
  | Error (Frame.Oversized n) ->
      check_bool "announced length" true (n > Frame.max_payload)
  | Ok _ | Error _ -> Alcotest.fail "oversized frame accepted"

let gen_bytes =
  QCheck2.Gen.(map Bytes.unsafe_to_string (bytes_size (int_bound 64)))

let prop_frame_decode_total =
  QCheck2.Test.make ~name:"frame decoder is total" ~count:2000 gen_bytes
    (fun input ->
      match Frame.decode input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- message codec --- *)

let sample_hello = { Proto.node_id = "n1"; backend = "tree"; proto = 1 }

let sample_msgs =
  [
    Proto.Hello sample_hello;
    Proto.Hello_ack { sample_hello with node_id = "n2" };
    Proto.Offer ("", []);
    Proto.Offer ("vstamp-trace/1;t;s;n", [ ("k", "stamp-bytes", "digest") ]);
    Proto.Want [];
    Proto.Want [ "a"; "b" ];
    Proto.Items [ ("k", "stamp", [ "v1"; "v2" ]); ("l", "s", []) ];
    Proto.Result [ ("k", "stamp", [ "v" ]) ];
    Proto.Bye;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      match Proto.decode (Proto.encode msg) with
      | Ok m -> check_bool "roundtrip" true (m = msg)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_msgs

let test_proto_rejects_bad_magic () =
  let m = Proto.encode (Proto.Hello sample_hello) in
  (* corrupt one magic byte: the handshake must not parse *)
  let bad = Bytes.of_string m in
  Bytes.set bad 2 'X';
  match Proto.decode (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hello with corrupted magic decoded"

let prop_proto_decode_total =
  QCheck2.Test.make ~name:"message decoder is total" ~count:2000 gen_bytes
    (fun input ->
      match Proto.decode input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let gen_msg = QCheck2.Gen.oneofl sample_msgs

let prop_proto_bitflip =
  QCheck2.Test.make ~name:"bit-flipped messages never raise" ~count:1000
    QCheck2.Gen.(triple gen_msg (int_bound 1000) (int_bound 7))
    (fun (msg, at, bit) ->
      let s = Bytes.of_string (Proto.encode msg) in
      let at = at mod Bytes.length s in
      Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor (1 lsl bit)));
      match Proto.decode (Bytes.to_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_proto_truncation =
  QCheck2.Test.make ~name:"truncated messages never decode" ~count:1000
    QCheck2.Gen.(pair gen_msg (int_bound 1000))
    (fun (msg, cut) ->
      let s = Proto.encode msg in
      let cut = cut mod String.length s in
      match Proto.decode (String.sub s 0 cut) with
      | Error _ -> true
      | Ok _ -> String.length s = 0
      | exception _ -> false)

(* [Proto.decode] before the one-cursor reader, kept verbatim as the
   reference: each field reader returns the value and the next
   position in an option. *)
module Decode_ref = struct
  let ( let* ) o f = match o with None -> None | Some v -> f v

  let get_varint s pos =
    let len = String.length s in
    let rec go pos shift acc =
      if pos >= len || shift > 56 then None
      else
        let c = Char.code s.[pos] in
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c land 0x80 = 0 then Some (acc, pos + 1)
        else go (pos + 1) (shift + 7) acc
    in
    go pos 0 0

  let get_string s pos =
    let* n, pos = get_varint s pos in
    if n < 0 || pos + n > String.length s then None
    else Some (String.sub s pos n, pos + n)

  let get_list get_elt s pos =
    let* n, pos = get_varint s pos in
    if n > String.length s - pos then None
    else
      let rec go i pos acc =
        if i = 0 then Some (List.rev acc, pos)
        else
          let* v, pos = get_elt s pos in
          go (i - 1) pos (v :: acc)
      in
      go n pos []

  let get_hello s pos =
    let* m, pos = get_string s pos in
    if not (String.equal m Proto.magic) then None
    else
      let* proto, pos = get_varint s pos in
      let* node_id, pos = get_string s pos in
      let* backend, pos = get_string s pos in
      Some ({ Proto.node_id; backend; proto }, pos)

  let get_frontier_entry s pos =
    let* key, pos = get_string s pos in
    let* stamp, pos = get_string s pos in
    let* digest, pos = get_string s pos in
    Some ((key, stamp, digest), pos)

  let get_delta_entry s pos =
    let* key, pos = get_string s pos in
    let* stamp, pos = get_string s pos in
    let* values, pos = get_list get_string s pos in
    Some ((key, stamp, values), pos)

  let decode s =
    let fail = Error "malformed message" in
    if String.length s < 1 then Error "empty message"
    else
      let finish pos v = if pos = String.length s then Ok v else fail in
      let pos = 1 in
      match Char.code s.[0] with
      | 1 -> (
          match get_hello s pos with
          | Some (h, pos) -> finish pos (Proto.Hello h)
          | None -> fail)
      | 2 -> (
          match get_hello s pos with
          | Some (h, pos) -> finish pos (Proto.Hello_ack h)
          | None -> fail)
      | 3 -> (
          match
            let* header, pos = get_string s pos in
            let* frontier, pos = get_list get_frontier_entry s pos in
            Some ((header, frontier), pos)
          with
          | Some ((header, frontier), pos) ->
              finish pos (Proto.Offer (header, frontier))
          | None -> fail)
      | 4 -> (
          match get_list get_string s pos with
          | Some (keys, pos) -> finish pos (Proto.Want keys)
          | None -> fail)
      | 5 -> (
          match get_list get_delta_entry s pos with
          | Some (entries, pos) -> finish pos (Proto.Items entries)
          | None -> fail)
      | 6 -> (
          match get_list get_delta_entry s pos with
          | Some (entries, pos) -> finish pos (Proto.Result entries)
          | None -> fail)
      | 7 -> finish pos Proto.Bye
      | t -> Error (Printf.sprintf "unknown message tag %d" t)
end

(* The reference is not total: a string length near [max_int]
   overflows its bounds check and [String.sub] raises.  There the
   reader must say the message is malformed. *)
let decoders_agree input =
  match (Proto.decode input, Decode_ref.decode input) with
  | got, expected -> got = expected
  | exception Invalid_argument _ ->
      Proto.decode input = Error "malformed message"

let test_proto_length_overflow () =
  let input = "\x04\x01" ^ String.make 8 '\xff' ^ "\x3f" in
  Alcotest.(check (result reject string))
    "length near max_int" (Error "malformed message") (Proto.decode input);
  check_bool "the reference raises" true
    (match Decode_ref.decode input with
    | _ -> false
    | exception Invalid_argument _ -> true)

let gen_field =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ ""; "k"; Proto.magic; "\x00\xff" ];
        string_size ~gen:char (int_bound 12);
      ])

let gen_msg_of gen_field =
  let open QCheck2.Gen in
  let hello =
    map3
      (fun node_id backend proto -> { Proto.node_id; backend; proto })
      gen_field gen_field
      (oneof [ int_bound 300; map abs int ])
  in
  let entries g = list_size (int_bound 4) g in
  oneof
    [
      map (fun h -> Proto.Hello h) hello;
      map (fun h -> Proto.Hello_ack h) hello;
      map2
        (fun h f -> Proto.Offer (h, f))
        gen_field
        (entries (triple gen_field gen_field gen_field));
      map (fun ks -> Proto.Want ks) (entries gen_field);
      map
        (fun es -> Proto.Items es)
        (entries (triple gen_field gen_field (entries gen_field)));
      map
        (fun es -> Proto.Result es)
        (entries (triple gen_field gen_field (entries gen_field)));
      return Proto.Bye;
    ]

let gen_random_msg = gen_msg_of gen_field

(* Random bytes (some behind a known tag), encodings of random
   messages, and those encodings cut short or with one byte
   replaced. *)
let gen_decoder_input =
  let open QCheck2.Gen in
  let encoded = map Proto.encode gen_random_msg in
  oneof
    [
      gen_bytes;
      map2 (fun t s -> String.make 1 (Char.chr t) ^ s) (int_range 0 9) gen_bytes;
      encoded;
      map2
        (fun s cut -> String.sub s 0 (cut mod (String.length s + 1)))
        encoded nat;
      map3
        (fun s at b ->
          let s = Bytes.of_string s in
          let at = at mod Bytes.length s in
          Bytes.set s at (Char.chr b);
          Bytes.to_string s)
        encoded nat (int_bound 255);
    ]

let prop_proto_decode_matches_reference =
  QCheck2.Test.make ~name:"message decoder = the reference" ~count:3000
    ~print:String.escaped gen_decoder_input decoders_agree

(* [Proto.encode] before it sized its buffer, kept verbatim as the
   reference: a 256-byte buffer grown by doubling. *)
module Encode_ref = struct
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

  let tag = function
    | Proto.Hello _ -> 1
    | Hello_ack _ -> 2
    | Offer _ -> 3
    | Want _ -> 4
    | Items _ -> 5
    | Result _ -> 6
    | Bye -> 7

  let put_hello b h =
    put_string b Proto.magic;
    put_varint b h.Proto.proto;
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

  let encode msg =
    let b = Buffer.create 256 in
    Buffer.add_char b (Char.chr (tag msg));
    (match msg with
    | Proto.Hello h | Hello_ack h -> put_hello b h
    | Offer (header, frontier) ->
        put_string b header;
        put_list b put_frontier_entry frontier
    | Want keys -> put_list b put_string keys
    | Items entries | Result entries -> put_list b put_delta_entry entries
    | Bye -> ());
    Buffer.contents b
end

(* Random messages whose fields run from empty to 64 KiB, so every
   length varint takes one to three bytes. *)
let prop_proto_encode_matches_reference =
  let gen_field =
    QCheck2.Gen.(
      oneof
        [
          gen_field;
          map2 String.make (int_range 128 20_000) printable;
          map (fun c -> String.make 65_536 c) char;
        ])
  in
  let encoding encode msg =
    match encode msg with
    | s -> Ok s
    | exception Invalid_argument m -> Error m
  in
  QCheck2.Test.make ~name:"message encoder = the reference" ~count:300
    (gen_msg_of gen_field) (fun msg ->
      encoding Proto.encode msg = encoding Encode_ref.encode msg)

(* --- live nodes on loopback --- *)

let with_node ?(peers = fun _ -> []) ~registry ~node_id f =
  let t =
    N.create ~registry ~interval_s:0.05 ~idle_timeout_s:5.0 ~node_id
      ~backend:"tree" ~port:0 ~peers:(peers ()) ()
  in
  Fun.protect ~finally:(fun () -> N.stop t) (fun () -> f t)

let counter r name = Metric.count (Registry.counter r name)

let test_two_nodes_converge () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          (* bootstrap: replicate the shared key so later writes are
             genuinely concurrent (independently created keys carry
             identical seed stamps and would not conflict) *)
          N.put a ~key:"shared" "base";
          check_int "bootstrap round" 1 (N.sync_now b);
          N.put a ~key:"only-a" "1";
          N.put b ~key:"only-b" "2";
          N.put a ~key:"shared" "from-a";
          N.put b ~key:"shared" "from-b";
          check_int "one peer round" 1 (N.sync_now b);
          Alcotest.(check (list string))
            "a has b's key" [ "2" ] (N.get a "only-b");
          Alcotest.(check (list string))
            "b has a's key" [ "1" ] (N.get b "only-a");
          Alcotest.(check (list string))
            "conflict surfaced both sides"
            [ "from-a"; "from-b" ]
            (List.sort compare (N.get b "shared"));
          check_bool "digests equal" true (N.digest a = N.digest b);
          check_bool "initiator counted rounds" true
            (counter rb "net_rounds_total" = 2);
          check_bool "responder accounted the sessions" true
            (counter ra "net_sync_rounds_total" = 2);
          check_bool "responder shipped bytes" true
            (counter ra "net_sync_shipped_bytes_total" > 0);
          check_bool "bytes moved both ways" true
            (counter rb "net_tx_bytes_total" > 0
            && counter rb "net_rx_bytes_total" > 0);
          (* a second round over converged stores ships no payload *)
          let s0 = counter ra "net_sync_minimal_bytes_total" in
          check_int "second round" 1 (N.sync_now b);
          check_int "minimal delta unchanged" s0
            (counter ra "net_sync_minimal_bytes_total")))

(* A value the responder lacks reaches it in Items and goes back
   stamp-only in Result: the responder sends under 1 KiB for a 64 KiB
   put.  Stopping the responder joins its session, so its counters are
   final when read. *)
let test_result_is_stamp_only () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          let value = String.make 65536 'v' in
          N.put b ~key:"bulk" value;
          let tx0 = counter ra "net_tx_bytes_total" in
          check_int "one round" 1 (N.sync_now b);
          N.stop a;
          let sent = counter ra "net_tx_bytes_total" - tx0 in
          check_bool
            (Printf.sprintf "responder sent %d B, under 1 KiB" sent)
            true (sent < 1024);
          check_bool "responder has the value" true (N.get a "bulk" = [ value ]);
          check_bool "initiator kept the value" true
            (N.get b "bulk" = [ value ]);
          check_int "no protocol error" 0
            (counter ra "net_protocol_errors_total"
            + counter rb "net_protocol_errors_total")))

(* --- the store digest --- *)

let fill n ~last =
  for k = 0 to 63 do
    N.put n ~key:(Printf.sprintf "k%03d" k) (if k = 63 then last else "v")
  done

let test_digest_sees_every_key () =
  with_node ~registry:(Registry.create ()) ~node_id:"a" (fun a ->
      with_node ~registry:(Registry.create ()) ~node_id:"b" (fun b ->
          fill a ~last:"x";
          fill b ~last:"y";
          check_bool "k063 alone differs, the digests differ" true
            (N.digest a <> N.digest b)))

(* Same content, different stamps: after the bootstrap round the two
   copies of [k] hold forked ids, and each side rewrites [k] on its own
   (b twice), so the writes are concurrent. *)
let test_digest_ignores_history () =
  with_node ~registry:(Registry.create ()) ~node_id:"a" (fun a ->
      with_node ~registry:(Registry.create ())
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        ~node_id:"b"
        (fun b ->
          N.put a ~key:"k" "base";
          N.put a ~key:"j" "1";
          check_int "bootstrap round" 1 (N.sync_now b);
          N.put a ~key:"k" "v";
          N.put b ~key:"k" "w";
          N.put b ~key:"k" "v";
          check_bool "equal content, equal digests" true
            (N.digest a = N.digest b);
          check_int "concurrent round" 1 (N.sync_now b);
          Alcotest.(check (list string)) "one candidate" [ "v" ] (N.get a "k");
          check_bool "still equal after the round" true
            (N.digest a = N.digest b)))

let prometheus_line r name =
  List.find_opt
    (fun l -> String.starts_with ~prefix:(name ^ " ") l)
    (String.split_on_char '\n' (Registry.to_prometheus r))

(* The gauges the O(1) refresh publishes, checked against the node's
   own readers after a seeded mix of puts and rounds on three nodes:
   the key count exactly, and the digest as a plain integer below
   2^53, so the float gauge prints it exactly. *)
let test_store_gauges_exact () =
  let ra = Registry.create ()
  and rb = Registry.create ()
  and rc = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          with_node ~registry:rc ~node_id:"c"
            ~peers:(fun () ->
              [ ("127.0.0.1", N.port a); ("127.0.0.1", N.port b) ])
            (fun c ->
              let nodes = [| a; b; c |] in
              let st = Random.State.make [| 19 |] in
              for _ = 1 to 60 do
                let n = nodes.(Random.State.int st 3) in
                if Random.State.int st 4 = 0 then ignore (N.sync_now n)
                else
                  N.put n
                    ~key:(Printf.sprintf "k%02d" (Random.State.int st 12))
                    (Printf.sprintf "v%d" (Random.State.int st 5))
              done;
              List.iter
                (fun (name, n, r) ->
                  let keys = Registry.gauge r "net_store_keys" in
                  check_int (name ^ ": net_store_keys")
                    (List.length (N.keys n))
                    (int_of_float (Metric.value keys));
                  check_bool (name ^ ": digest below 2^53") true
                    (N.digest n >= 0 && N.digest n < 1 lsl 53);
                  Alcotest.(check (option string))
                    (name ^ ": net_store_digest prints the digest")
                    (Some ("net_store_digest " ^ string_of_int (N.digest n)))
                    (prometheus_line r "net_store_digest"))
                [ ("a", a, ra); ("b", b, rb); ("c", c, rc) ])))

let drain_read fd =
  let b = Bytes.create 256 in
  let rec go n =
    if n > 200 then n
    else
      match Unix.read fd b 0 256 with
      | 0 -> n
      | r -> go (n + r)
      | exception Unix.Unix_error _ -> n
  in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_handshake_version_rejected () =
  let r = Registry.create () in
  with_node ~registry:r ~node_id:"a" (fun a ->
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let hello =
            Proto.Hello { Proto.node_id = "evil"; backend = "tree"; proto = 99 }
          in
          (match Frame.write fd (Proto.encode hello) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
          (* no Hello_ack: the node closes without replying *)
          check_int "connection closed, nothing sent" 0 (drain_read fd);
          check_bool "protocol error counted" true
            (counter r "net_protocol_errors_total" >= 1)))

(* A [vstamp-sync/1] peer would store a stamp-only result as an empty
   register, so its Hello (that version's magic, proto 1) is refused
   before any reply. *)
let test_v1_hello_refused () =
  let r = Registry.create () in
  with_node ~registry:r ~node_id:"a" (fun a ->
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let v1_hello = "\x01\x0dvstamp-sync/1\x01\x03old\x04tree" in
          (match Frame.write fd v1_hello with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
          check_int "connection closed, no Hello_ack" 0 (drain_read fd);
          check_int "one protocol error" 1
            (counter r "net_protocol_errors_total")))

let test_garbage_frame_rejected () =
  let r = Registry.create () in
  with_node ~registry:r ~node_id:"a" (fun a ->
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match Frame.write fd "\x2a not a message" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
          check_int "connection closed, nothing sent" 0 (drain_read fd);
          check_bool "protocol error counted" true
            (counter r "net_protocol_errors_total" >= 1)))

(* A stamp nested past the decoder's depth cap is a protocol error like
   any other bad stamp: the session ends, and the node goes on serving
   good peers. *)
let test_deep_stamp_rejected () =
  let open Vstamp_core in
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      N.put a ~key:"k" "v";
      let deep =
        let n =
          Name_tree.singleton
            (Bits.of_string
               (String.make (Vstamp_codec.Wire.max_depth + 1) '0'))
        in
        Vstamp_codec.Wire.stamp_to_string (Stamp.make ~update:n ~id:n)
      in
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let send msg =
            match Frame.write fd (Proto.encode msg) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "write: %a" Frame.pp_error e
          in
          send
            (Proto.Hello
               { Proto.node_id = "deep"; backend = "tree"; proto = Proto.version });
          (match Frame.read fd with
          | Ok (Some _) -> ()
          | _ -> Alcotest.fail "expected Hello_ack");
          send (Proto.Offer ("", [ ("k2", deep, "") ]));
          check_int "connection closed, no Want sent" 0 (drain_read fd));
      check_int "one protocol error" 1 (counter ra "net_protocol_errors_total");
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          check_int "a good peer's round completes" 1 (N.sync_now b);
          Alcotest.(check (list string)) "b has a's key" [ "v" ] (N.get b "k"));
      check_int "still one protocol error" 1
        (counter ra "net_protocol_errors_total"))

let rec wait_for ?(tries = 100) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Thread.delay 0.05;
    wait_for ~tries:(tries - 1) pred
  end

let test_dialer_backoff_on_dead_peer () =
  let r = Registry.create () in
  (* a port nobody listens on: grab one, then close it *)
  let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let dead_port =
    match Unix.getsockname probe with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close probe;
  with_node ~registry:r ~node_id:"a"
    ~peers:(fun () -> [ ("127.0.0.1", dead_port) ])
    (fun a ->
      N.start_dialers a;
      check_bool "reconnects counted" true
        (wait_for (fun () -> counter r "net_reconnects_total" >= 2));
      match N.peers_json a with
      | Vstamp_obs.Jsonx.Obj fields -> (
          match List.assoc "peers" fields with
          | Vstamp_obs.Jsonx.List [ Vstamp_obs.Jsonx.Obj peer ] ->
              let state =
                match List.assoc "state" peer with
                | Vstamp_obs.Jsonx.String s -> s
                | _ -> "?"
              in
              check_bool "backing off or redialing" true
                (List.mem state [ "backoff"; "connecting" ]);
              check_bool "attempts visible" true
                (match List.assoc "attempts" peer with
                | Vstamp_obs.Jsonx.Int n -> n >= 1
                | _ -> false);
              check_bool "last_error recorded" true
                (List.mem_assoc "last_error" peer)
          | _ -> Alcotest.fail "peers array shape")
      | _ -> Alcotest.fail "peers_json shape")

(* Every frame is written whole and waits for its reply, so neither
   end of a connection may hold a frame's tail back for Nagle's
   algorithm. *)
let test_tcp_nodelay () =
  let module Tcp = Vstamp_obs.Tcp in
  let server = Tcp.listen ~port:0 () in
  let served = ref None in
  Tcp.start server ~timeout_s:5.0 (fun fd ->
      served := Some (Unix.getsockopt fd Unix.TCP_NODELAY);
      ignore (Unix.write_substring fd "x" 0 1));
  Fun.protect
    ~finally:(fun () -> Tcp.stop server)
    (fun () ->
      match Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port server) ~timeout_s:5.0
      with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              check_bool "connect sets TCP_NODELAY" true
                (Unix.getsockopt fd Unix.TCP_NODELAY);
              (* the handler writes after reading the option *)
              check_int "handler ran" 1 (Unix.read fd (Bytes.create 1) 0 1);
              Alcotest.(check (option bool))
                "an accepted socket has TCP_NODELAY" (Some true) !served))

(* The one reconnect schedule, shared by the dialers and the CLI's
   --retry: 0.2 s doubling, capped at 5 s. *)
let test_backoff_schedule () =
  Alcotest.(check (list (float 1e-9)))
    "delays after failed attempts 1-7"
    [ 0.2; 0.4; 0.8; 1.6; 3.2; 5.0; 5.0 ]
    (List.map Vstamp_obs.Tcp.backoff_delay [ 1; 2; 3; 4; 5; 6; 7 ])

let test_dialer_recovers_and_syncs () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      N.put a ~key:"k" "from-a";
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          N.start_dialers b;
          check_bool "periodic rounds converge" true
            (wait_for (fun () -> N.get b "k" = [ "from-a" ]))))

(* Stopping a responder whose peer keeps hammering it with rounds must
   return promptly: the stop path shuts the live connections down
   rather than waiting for the sessions to go quiet. *)
let test_stop_responder_under_load () =
  let ra = Registry.create () and rb = Registry.create () in
  let a =
    N.create ~registry:ra ~interval_s:0.01 ~idle_timeout_s:5.0 ~node_id:"a"
      ~backend:"tree" ~port:0 ~peers:[] ()
  in
  Fun.protect
    ~finally:(fun () -> N.stop a (* idempotent *))
    (fun () ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          N.put a ~key:"k" "v";
          N.start_dialers b;
          check_bool "dialer reached the responder" true
            (wait_for (fun () -> N.get b "k" = [ "v" ]));
          let t0 = Unix.gettimeofday () in
          N.stop a;
          check_bool "stop returned promptly under load" true
            (Unix.gettimeofday () -. t0 < 4.0)))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let handshake fd =
  let hello =
    { Proto.node_id = "idle"; backend = "tree"; proto = Proto.version }
  in
  (match Frame.write fd (Proto.encode (Proto.Hello hello)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
  match Frame.read fd with
  | Ok (Some (payload, _)) -> (
      match Proto.decode payload with
      | Ok (Proto.Hello_ack _) -> ()
      | _ -> Alcotest.fail "expected Hello_ack")
  | _ -> Alcotest.fail "no Hello_ack"

(* An Offer whose keys are out of order or repeated is a protocol error:
   the engine takes only the strictly ascending order an initiator's
   offer has.  Each such session ends before any Want, and the node
   goes on serving good peers. *)
let test_disordered_offer_rejected () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      N.put a ~key:"k" "v";
      let st = Vstamp_codec.Wire.stamp_to_string Vstamp_core.Stamp.seed in
      List.iteri
        (fun i keys ->
          let fd = connect (N.port a) in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              handshake fd;
              let frontier = List.map (fun k -> (k, st, "")) keys in
              let offer = Proto.encode (Proto.Offer ("", frontier)) in
              (match Frame.write fd offer with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
              check_int "connection closed, no Want sent" 0 (drain_read fd));
          check_int "one protocol error per offer" (i + 1)
            (counter ra "net_protocol_errors_total"))
        [ [ "k2"; "k1" ]; [ "k1"; "k1" ] ];
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          check_int "a good peer's round completes" 1 (N.sync_now b);
          Alcotest.(check (list string)) "b has a's key" [ "v" ] (N.get b "k"));
      check_int "still two protocol errors" 2
        (counter ra "net_protocol_errors_total"))

(* A responder blocked in a read must not hold up [stop], whatever the
   idle timeout: this peer completes the handshake, then idles. *)
let test_stop_with_idle_session () =
  let r = Registry.create () in
  let a =
    N.create ~registry:r ~idle_timeout_s:30.0 ~node_id:"a" ~backend:"tree"
      ~port:0 ~peers:[] ()
  in
  let fd = connect (N.port a) in
  Fun.protect
    ~finally:(fun () ->
      N.stop a;
      close_quietly fd)
    (fun () ->
      handshake fd;
      let t0 = Unix.gettimeofday () in
      N.stop a;
      check_bool "stop returned promptly" true
        (Unix.gettimeofday () -. t0 < 1.0))

(* [sync_now] opens its own connection, so a stopped node still
   completes a round against a live peer. *)
let test_sync_now_after_stop () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          N.put b ~key:"k" "from-b";
          N.stop b;
          check_int "round completed" 1 (N.sync_now b);
          Alcotest.(check (list string))
            "a has b's key" [ "from-b" ] (N.get a "k")))

(* A node serves at most [Tcp.max_connections] connections at once: the
   next one is closed at once, and a held one going away frees a slot
   for a new round. *)
let test_connection_cap () =
  let ra = Registry.create () and rb = Registry.create () in
  let a =
    N.create ~registry:ra ~idle_timeout_s:30.0 ~node_id:"a" ~backend:"tree"
      ~port:0 ~peers:[] ()
  in
  let held =
    ref
      (List.init Vstamp_obs.Tcp.max_connections (fun _ -> connect (N.port a)))
  in
  Fun.protect
    ~finally:(fun () ->
      N.stop a;
      List.iter close_quietly !held)
    (fun () ->
      let extra = connect (N.port a) in
      let t0 = Unix.gettimeofday () in
      let eof =
        match Unix.read extra (Bytes.create 1) 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false
      in
      close_quietly extra;
      check_bool "over-cap connection reads EOF" true eof;
      check_bool "closed at once" true (Unix.gettimeofday () -. t0 < 1.0);
      close_quietly (List.hd !held);
      held := List.tl !held;
      N.put a ~key:"k" "v";
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          check_bool "a freed slot serves a round" true
            (wait_for (fun () -> N.sync_now b = 1));
          Alcotest.(check (list string)) "b has a's key" [ "v" ] (N.get b "k")))

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncation" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          QCheck_alcotest.to_alcotest prop_frame_decode_total;
        ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_proto_rejects_bad_magic;
          QCheck_alcotest.to_alcotest prop_proto_decode_total;
          QCheck_alcotest.to_alcotest prop_proto_bitflip;
          QCheck_alcotest.to_alcotest prop_proto_truncation;
          Alcotest.test_case "length overflow" `Quick
            test_proto_length_overflow;
          QCheck_alcotest.to_alcotest prop_proto_decode_matches_reference;
          QCheck_alcotest.to_alcotest prop_proto_encode_matches_reference;
        ] );
      ( "nodes",
        [
          Alcotest.test_case "two nodes converge" `Quick test_two_nodes_converge;
          Alcotest.test_case "result is stamp-only" `Quick
            test_result_is_stamp_only;
          Alcotest.test_case "digest sees every key" `Quick
            test_digest_sees_every_key;
          Alcotest.test_case "digest ignores history" `Quick
            test_digest_ignores_history;
          Alcotest.test_case "store gauges exact" `Quick
            test_store_gauges_exact;
          Alcotest.test_case "handshake version rejected" `Quick
            test_handshake_version_rejected;
          Alcotest.test_case "vstamp-sync/1 hello refused" `Quick
            test_v1_hello_refused;
          Alcotest.test_case "garbage frame rejected" `Quick
            test_garbage_frame_rejected;
          Alcotest.test_case "stamp past the depth cap rejected" `Quick
            test_deep_stamp_rejected;
          Alcotest.test_case "disordered offer rejected" `Quick
            test_disordered_offer_rejected;
          Alcotest.test_case "TCP_NODELAY" `Quick test_tcp_nodelay;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "backoff on dead peer" `Quick
            test_dialer_backoff_on_dead_peer;
          Alcotest.test_case "dialer syncs periodically" `Quick
            test_dialer_recovers_and_syncs;
          Alcotest.test_case "stop responder under load" `Quick
            test_stop_responder_under_load;
          Alcotest.test_case "stop with an idle session" `Quick
            test_stop_with_idle_session;
          Alcotest.test_case "sync_now after stop" `Quick
            test_sync_now_after_stop;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
        ] );
    ]
