(* The traced run's shadow: one [N.KV] replica per node, driven through
   the same public calls a node makes in a sync_now round, each timed
   as a span.  Spans are recorded from the benchmark's side of the
   layer boundaries, so the program under test carries no tracing. *)

module C = Cluster
module KV = C.N.KV
module Ledger = Vstamp_sync.Ledger

type span = {
  id : int;
  parent : int;  (** The span of the real call this replays; [-1] at the top. *)
  op : int;
  name : string;
  start : float;
  stop : float;
  calls : int;  (** Calls the span covers (per-entry codec calls are batched). *)
}

type t = {
  shadows : KV.t array;
  mutable recording : bool;
  mutable op : int;
  mutable spans : span list;  (** Newest first. *)
  mutable next_id : int;
  mutable frame_bytes : int;  (** Every frame, handshakes included, recording or not. *)
  mutable layer_s : float;  (** Time in recorded replay spans: the layers' sum. *)
  mutable rounds : int;
  mutable offered : int;
  mutable wanted : int;
  mutable stamps : int;
  mutable offer_bytes : int;
  mutable items_bytes : int;
  tally : Ledger.t;
}

let create ~nodes =
  {
    shadows = Array.make nodes KV.empty;
    recording = false;
    op = -1;
    spans = [];
    next_id = 0;
    frame_bytes = 0;
    layer_s = 0.;
    rounds = 0;
    offered = 0;
    wanted = 0;
    stamps = 0;
    offer_bytes = 0;
    items_bytes = 0;
    tally = Ledger.create ();
  }

let reset_shadows tr =
  Array.fill tr.shadows 0 (Array.length tr.shadows) KV.empty;
  tr.frame_bytes <- 0

(* Record a span for an interval already measured (a real node call). *)
let record tr ~parent ?(calls = 1) name start stop =
  let id = tr.next_id in
  if tr.recording then begin
    tr.next_id <- id + 1;
    tr.spans <- { id; parent; op = tr.op; name; start; stop; calls } :: tr.spans
  end;
  id

(* Time one replayed call: every such span is a layer. *)
let span tr ~parent ?calls name f =
  let start = Host.now () in
  let r = f () in
  let stop = Host.now () in
  ignore (record tr ~parent ?calls name start stop);
  if tr.recording then tr.layer_s <- tr.layer_s +. (stop -. start);
  r

let count tr f = if tr.recording then f ()

let fail fmt = Printf.ksprintf failwith fmt

let decode_stamp s =
  match C.Codec.stamp_of_string s with
  | Ok st -> st
  | Error e -> fail "shadow stamp decode: %s" (Format.asprintf "%a" Vstamp_codec.Wire.pp_error e)

(* One message across the wire: encoded and framed by the sender,
   unframed and decoded by the receiver. *)
let exchange tr ~parent msg =
  let payload = span tr ~parent "proto.encode" (fun () -> C.Proto.encode msg) in
  let framed = span tr ~parent "frame.encode" (fun () -> C.Frame.encode payload) in
  tr.frame_bytes <- tr.frame_bytes + String.length framed;
  let payload =
    span tr ~parent "frame.decode" (fun () ->
        match C.Frame.decode framed with
        | Ok (p, _) -> p
        | Error e -> fail "shadow frame: %s" (Format.asprintf "%a" C.Frame.pp_error e))
  in
  let msg = span tr ~parent "proto.decode" (fun () ->
      match C.Proto.decode payload with Ok m -> m | Error e -> fail "shadow proto: %s" e)
  in
  (msg, String.length framed)

let ship tr ~parent ~wrap ~unwrap delta =
  let n = List.length delta in
  count tr (fun () -> tr.stamps <- tr.stamps + n);
  let encoded =
    span tr ~parent ~calls:n "wire.encode" (fun () ->
        List.map (fun (k, st, vs) -> (k, C.Codec.stamp_to_string st, vs)) delta)
  in
  let msg, bytes = exchange tr ~parent (wrap encoded) in
  let received = match unwrap msg with Some e -> e | None -> fail "shadow: wrong message" in
  let decoded =
    span tr ~parent ~calls:n "wire.decode" (fun () ->
        List.map (fun (k, s, vs) -> (k, decode_stamp s, vs)) received)
  in
  (decoded, bytes)

(* The node's gauge refresh after a reconcile or an apply: the content
   digest and the key count, both O(keys). *)
let refresh tr (cl : C.t) ~parent i =
  span tr ~parent "node.digest" (fun () ->
      ignore (C.N.digest cl.(i).C.node);
      ignore (List.length (C.N.keys cl.(i).C.node)))

(* One round of [sync_now] from node [i] to its peer [j], as
   [Node.do_round] and [Node.serve_connection] run it. *)
let round tr (cl : C.t) ~parent i j =
  let sh = tr.shadows in
  let sp ?calls name f = span tr ~parent ?calls name f in
  ignore (exchange tr ~parent (C.Proto.Hello (C.hello i)));
  ignore (exchange tr ~parent (C.Proto.Hello_ack (C.hello j)));
  let frontier = sp "engine.offer" (fun () -> KV.offer sh.(i)) in
  let n = List.length frontier in
  let encoded =
    sp ~calls:n "wire.encode" (fun () ->
        List.map (fun (k, st, d) -> (k, C.Codec.stamp_to_string st, d)) frontier)
  in
  let received, offer_bytes =
    match exchange tr ~parent (C.Proto.Offer ("", encoded)) with
    | C.Proto.Offer (_, f), b -> (f, b)
    | _ -> fail "shadow: Offer did not round-trip"
  in
  let frontier =
    sp ~calls:n "wire.decode" (fun () ->
        List.map (fun (k, s, d) -> (k, decode_stamp s, d)) received)
  in
  let wanted = sp "engine.wants" (fun () -> KV.wants sh.(j) frontier) in
  let wanted =
    match exchange tr ~parent (C.Proto.Want wanted) with
    | C.Proto.Want w, _ -> w
    | _ -> fail "shadow: Want did not round-trip"
  in
  let items = sp "engine.fulfil" (fun () -> KV.fulfil sh.(i) wanted) in
  let items, items_bytes =
    ship tr ~parent
      ~wrap:(fun e -> C.Proto.Items e)
      ~unwrap:(function C.Proto.Items e -> Some e | _ -> None)
      items
  in
  let tally = Ledger.create () in
  let store, results = sp "engine.reconcile" (fun () -> KV.reconcile ~tally sh.(j) frontier items) in
  sh.(j) <- store;
  refresh tr cl ~parent j;
  let results, _ =
    ship tr ~parent
      ~wrap:(fun e -> C.Proto.Result e)
      ~unwrap:(function C.Proto.Result e -> Some e | _ -> None)
      results
  in
  let store = sh.(i) in
  sh.(i) <-
    sp "engine.apply" (fun () ->
        (* the node's guard against puts that raced the round *)
        let fresh =
          List.filter
            (fun (key, _, _) ->
              KV.stamp store key = KV.stamp store key && KV.get store key = KV.get store key)
            results
        in
        KV.apply store fresh);
  refresh tr cl ~parent i;
  ignore (exchange tr ~parent C.Proto.Bye);
  count tr (fun () ->
      tr.rounds <- tr.rounds + 1;
      tr.offered <- tr.offered + n;
      tr.wanted <- tr.wanted + List.length wanted;
      tr.stamps <- tr.stamps + n;
      tr.offer_bytes <- tr.offer_bytes + offer_bytes;
      tr.items_bytes <- tr.items_bytes + items_bytes;
      Ledger.add tr.tally ~shipped:tally.Ledger.shipped ~minimal:tally.Ledger.minimal)

let put tr ~node ~key value = tr.shadows.(node) <- KV.put tr.shadows.(node) ~key value

let sync tr cl ~parent i = List.iter (round tr cl ~parent i) cl.(i).C.peers

(* Shadow and node must agree on every key. *)
let diverged tr (cl : C.t) =
  let bad = ref [] in
  Array.iteri
    (fun i m ->
      let shadow = tr.shadows.(i) in
      if C.N.keys m.C.node <> KV.keys shadow then bad := Printf.sprintf "node %d: key sets differ" i :: !bad
      else
        List.iter
          (fun key ->
            if List.sort compare (C.N.get m.C.node key) <> List.sort compare (KV.get shadow key) then
              bad := Printf.sprintf "node %d key %s: shadow candidates differ" i key :: !bad)
          (KV.keys shadow))
    cl;
  List.rev !bad

let encoded_stamps tr i =
  let shadow = tr.shadows.(i) in
  List.map
    (fun key ->
      match KV.stamp shadow key with
      | Some st -> (key, C.Codec.stamp_to_string st)
      | None -> (key, ""))
    (KV.keys shadow)

let write_spans tr path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\top\tname\tstart_us\tend_us\tcalls\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%d\n" s.id s.parent s.op s.name
            (s.start *. 1e6) (s.stop *. 1e6) s.calls)
        (List.rev tr.spans))
