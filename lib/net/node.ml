open Vstamp_core
module Engine = Vstamp_sync.Engine
module Ledger = Vstamp_sync.Ledger
module R = Vstamp_obs.Registry
module M = Vstamp_obs.Metric
module J = Vstamp_obs.Jsonx
module Tr = Vstamp_obs.Trace_ctx
module Tcp = Vstamp_obs.Tcp

let ( let* ) = Result.bind

module Make (B : Backend.S) = struct
  module KV = Vstamp_kvs.Stamped_kv.Make (B.Stamp)
  module C = Vstamp_codec.Wire.Make (B)

  type metrics = {
    ledger : Ledger.counters;  (* net_sync_{rounds,shipped,...} *)
    rounds : M.counter;  (* net_rounds_total: initiated rounds done *)
    tx : M.counter;  (* net_tx_bytes_total *)
    rx : M.counter;  (* net_rx_bytes_total *)
    proto_errors : M.counter;  (* net_protocol_errors_total *)
    reconnects : M.counter;  (* net_reconnects_total *)
    peers_connected : M.gauge;  (* net_peers_connected *)
    store_keys : M.gauge;  (* net_store_keys *)
    store_digest : M.gauge;  (* net_store_digest *)
  }

  let metrics registry =
    {
      ledger = Ledger.counters ~registry ~prefix:"net_sync_" ();
      rounds = R.counter registry "net_rounds_total";
      tx = R.counter registry "net_tx_bytes_total";
      rx = R.counter registry "net_rx_bytes_total";
      proto_errors = R.counter registry "net_protocol_errors_total";
      reconnects = R.counter registry "net_reconnects_total";
      peers_connected = R.gauge registry "net_peers_connected";
      store_keys = R.gauge registry "net_store_keys";
      store_digest = R.gauge registry "net_store_digest";
    }

  type peer_state =
    | Idle  (* not yet dialed *)
    | Connecting  (* a round is on, and the last one did not complete *)
    | Connected  (* the last round completed *)
    | Backoff of float  (* the last round failed; the dialer's delay *)

  type peer = {
    p_host : string;
    p_port : int;
    mutable p_state : peer_state;
    mutable p_node_id : string option;  (* learned from the handshake *)
    mutable p_attempts : int;  (* consecutive failed rounds *)
    mutable p_rounds : int;  (* completed rounds with this peer *)
    mutable p_last_error : string option;
  }

  type t = {
    node_id : string;
    backend : string;
    interval_s : float;
    idle_timeout_s : float;
    m : metrics;
    mutex : Mutex.t;
    mutable store : KV.t;
    server : Tcp.t;
    peers : peer list;
    mutable dial_threads : Thread.t list;
  }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* The store keeps its key count and content digest up to date, so
     the gauges cost O(1) after every put, reconcile and apply. *)
  let refresh_store_gauges t =
    M.set t.m.store_keys (float_of_int (KV.cardinal t.store));
    M.set t.m.store_digest (float_of_int (KV.digest t.store))

  let refresh_peer_gauge t =
    let n =
      List.length
        (List.filter (fun p -> p.p_state = Connected) t.peers)
    in
    M.set t.m.peers_connected (float_of_int n)

  (* --- store access --- *)

  let put t ~key value =
    locked t (fun () ->
        t.store <- KV.put t.store ~key value;
        refresh_store_gauges t)

  let get t key = locked t (fun () -> KV.get t.store key)

  let keys t = locked t (fun () -> KV.keys t.store)

  let digest t = locked t (fun () -> KV.digest t.store)

  let port t = Tcp.port t.server

  let running t = Tcp.running t.server

  (* --- wire helpers --- *)

  let send t fd msg =
    match Frame.write fd (Proto.encode msg) with
    | Ok n ->
        M.add t.m.tx n;
        Ok ()
    | Error e -> Error (Format.asprintf "%a" Frame.pp_error e)

  let proto_fail t m =
    M.inc t.m.proto_errors;
    Error m

  (* [Ok None] is a clean EOF.  Torn and oversized frames are protocol
     errors; so is a frame that does not decode. *)
  let recv t fd =
    match Frame.read fd with
    | Ok None -> Ok None
    | Error (Frame.Io m) -> Error m
    | Error e -> proto_fail t (Format.asprintf "%a" Frame.pp_error e)
    | Ok (Some (payload, n)) -> (
        M.add t.m.rx n;
        match Proto.decode payload with
        | Ok msg -> Ok (Some msg)
        | Error m -> proto_fail t m)

  (* Receive the one message the protocol allows next: [pick] returns
     its payload, and any other message is a protocol error. *)
  let expect t fd what pick =
    match recv t fd with
    | Ok (Some msg) -> (
        match pick msg with
        | Some x -> Ok x
        | None -> proto_fail t ("expected " ^ what))
    | Ok None -> Error ("closed before " ^ what)
    | Error _ as e -> e

  let hello t = { Proto.node_id = t.node_id; backend = t.backend; proto = Proto.version }

  (* Both ends check the peer's protocol version.  A backend mismatch is
     fine: the wire codec is canonical, so stamps decode identically
     whatever shape the peer keeps them in. *)
  let expect_hello t fd what pick =
    match expect t fd what pick with
    | Ok h when h.Proto.proto <> Proto.version ->
        proto_fail t
          (Printf.sprintf "protocol version mismatch: theirs %d, ours %d"
             h.Proto.proto Proto.version)
    | r -> r

  (* Offer frontiers and Items/Result deltas are both lists of
     [(key, stamp, _)]: only the stamp goes through the codec.  A stamp
     that does not decode is a protocol error. *)
  let encode_entries es =
    List.map (fun (key, st, x) -> (key, C.stamp_to_string st, x)) es

  let decode_entries t es =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (key, stamp, x) :: rest -> (
          match C.stamp_of_string stamp with
          | Ok st -> go ((key, st, x) :: acc) rest
          | Error e ->
              proto_fail t
                (Format.asprintf "bad stamp: %a" Vstamp_codec.Wire.pp_error e))
    in
    go [] es

  (* --- responder: one thread per accepted connection --- *)

  (* A responder session: expect Hello, ack it, then serve Offer/Items
     pairs until Bye, EOF, idle timeout, stop or an error.  All store
     mutation happens inside one lock-held reconcile, so a session is
     atomic with respect to local puts and other sessions. *)
  let serve_connection t fd =
    let reconcile_round header frontier items =
      let apply () =
        locked t (fun () ->
            let tally = Ledger.create () in
            let store, results =
              KV.reconcile ~tally t.store frontier items
            in
            t.store <- store;
            Ledger.round t.m.ledger;
            Ledger.account t.m.ledger ~shipped:tally.Ledger.shipped
              ~minimal:tally.Ledger.minimal;
            refresh_store_gauges t;
            results)
      in
      if String.length header > 0 && Tr.attached () then
        Tr.with_remote_span ~header
          ~attrs:[ ("keys", J.Int (List.length frontier)) ]
          "net.apply" apply
      else apply ()
    in
    let rec session pending_offer =
      if not (running t) then Ok ()
      else
        match recv t fd with
        | Ok None | Ok (Some Proto.Bye) -> Ok ()
        | Error _ as e -> e
        | Ok (Some (Proto.Offer (header, frontier))) ->
            (* The engine takes only the order [offer] sends, and raises
               on any other; an exception here would end the thread
               uncounted. *)
            let* () =
              if Engine.ascending frontier then Ok ()
              else proto_fail t "Offer keys not strictly ascending"
            in
            let* frontier = decode_entries t frontier in
            let wanted = locked t (fun () -> KV.wants t.store frontier) in
            let* () = send t fd (Proto.Want wanted) in
            session (Some (header, frontier))
        | Ok (Some (Proto.Items items)) -> (
            match pending_offer with
            | None -> proto_fail t "Items without a preceding Offer"
            | Some (header, frontier) ->
                let* items = decode_entries t items in
                let results = reconcile_round header frontier items in
                let* () = send t fd (Proto.Result (encode_entries results)) in
                session None)
        | Ok (Some (Proto.Hello _ | Proto.Hello_ack _)) ->
            proto_fail t "unexpected handshake mid-session"
        | Ok (Some (Proto.Want _ | Proto.Result _)) ->
            proto_fail t "unexpected initiator-bound message"
    in
    ignore
      (let* _ =
         expect_hello t fd "Hello" (function Proto.Hello h -> Some h | _ -> None)
       in
       let* () = send t fd (Proto.Hello_ack (hello t)) in
       session None)

  (* --- initiator: one round per connection --- *)

  (* One anti-entropy round over an established link.  The offer and
     the items both come from one snapshot.  The apply guard: a result
     entry is only adopted when the local entry is still the snapshot's
     — a put that raced the round keeps its write and the next round
     reconciles it properly — so a stamp-only result always pairs its
     stamp with exactly the candidates that were shipped. *)
  let do_round t peer fd =
    let run () =
      let header =
        if Tr.attached () then
          match Tr.current () with
          | Some ctx -> Tr.to_header ctx
          | None -> ""
        else ""
      in
      let snapshot, frontier =
        locked t (fun () -> (t.store, KV.offer t.store))
      in
      let* () = send t fd (Proto.Offer (header, encode_entries frontier)) in
      let* wanted =
        expect t fd "Want" (function Proto.Want w -> Some w | _ -> None)
      in
      let items = KV.fulfil snapshot wanted in
      let* () = send t fd (Proto.Items (encode_entries items)) in
      let* results =
        expect t fd "Result" (function Proto.Result r -> Some r | _ -> None)
      in
      let* results = decode_entries t results in
      locked t (fun () ->
          let fresh =
            List.filter
              (fun (key, _, _) ->
                KV.stamp t.store key = KV.stamp snapshot key
                && KV.get t.store key = KV.get snapshot key)
              results
          in
          t.store <- KV.apply t.store fresh;
          refresh_store_gauges t);
      M.inc t.m.rounds;
      peer.p_rounds <- peer.p_rounds + 1;
      Ok ()
    in
    if Tr.attached () then
      Tr.with_span "net.session"
        ~attrs:
          [
            ("peer", J.String (Printf.sprintf "%s:%d" peer.p_host peer.p_port));
          ]
        run
    else run ()

  (* The one initiator path, shared by the periodic dialers and
     [sync_now]: connect, handshake, one round, Bye, close.  The outcome
     is recorded on the peer for [/peers.json]: [connected] means the
     last round completed, and each failed round in a row adds an
     attempt and doubles the backoff. *)
  let round_with t peer =
    if peer.p_state <> Connected then peer.p_state <- Connecting;
    let outcome =
      let* fd =
        Tcp.connect ~host:peer.p_host ~port:peer.p_port
          ~timeout_s:t.idle_timeout_s
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let* () = send t fd (Proto.Hello (hello t)) in
          let* h =
            expect_hello t fd "Hello_ack" (function
              | Proto.Hello_ack h -> Some h
              | _ -> None)
          in
          peer.p_node_id <- Some h.Proto.node_id;
          let* () = do_round t peer fd in
          let (_ : (unit, string) result) = send t fd Proto.Bye in
          Ok ())
    in
    (match outcome with
    | Ok () ->
        peer.p_state <- Connected;
        peer.p_attempts <- 0;
        peer.p_last_error <- None
    | Error m ->
        peer.p_attempts <- peer.p_attempts + 1;
        peer.p_state <- Backoff (Tcp.backoff_delay peer.p_attempts);
        peer.p_last_error <- Some m);
    refresh_peer_gauge t;
    outcome

  (* Interruptible sleep: wake early when the node is stopping. *)
  let snooze t seconds =
    let rec go left =
      if left > 0. && running t then begin
        Thread.delay (Float.min 0.05 left);
        go (left -. 0.05)
      end
    in
    go seconds

  (* A periodic dialer: a round every [interval_s], or after the backoff
     delay when the last round failed. *)
  let dialer t peer =
    while running t do
      match round_with t peer with
      | Ok () -> snooze t t.interval_s
      | Error _ ->
          M.inc t.m.reconnects;
          snooze t (Tcp.backoff_delay peer.p_attempts)
    done

  (* A one-shot synchronous round against every peer: deterministic
     anti-entropy for benches, smoke tests and the soak driver.  It
     works on a stopped node too.  Returns how many peers completed a
     round. *)
  let sync_now t =
    List.fold_left
      (fun ok peer -> if Result.is_ok (round_with t peer) then ok + 1 else ok)
      0 t.peers

  (* --- the /peers.json snapshot --- *)

  let peer_json p =
    let state, backoff_s =
      match p.p_state with
      | Idle -> ("idle", None)
      | Connecting -> ("connecting", None)
      | Connected -> ("connected", None)
      | Backoff d -> ("backoff", Some d)
    in
    J.Obj
      ([
         ("host", J.String p.p_host);
         ("port", J.Int p.p_port);
         ("state", J.String state);
         ("attempts", J.Int p.p_attempts);
         ("rounds", J.Int p.p_rounds);
       ]
      @ (match backoff_s with
        | Some d -> [ ("backoff_s", J.Float d) ]
        | None -> [])
      @ (match p.p_node_id with
        | Some id -> [ ("node_id", J.String id) ]
        | None -> [])
      @
      match p.p_last_error with
      | Some m -> [ ("last_error", J.String m) ]
      | None -> [])

  (* The key count and the digest are read under one lock, so both
     describe the same store. *)
  let peers_json t =
    let store_keys, store_digest =
      locked t (fun () -> (KV.cardinal t.store, KV.digest t.store))
    in
    J.Obj
      [
        ("node_id", J.String t.node_id);
        ("backend", J.String t.backend);
        ("protocol", J.String Proto.magic);
        ("port", J.Int (port t));
        ("store_keys", J.Int store_keys);
        ("store_digest", J.Int store_digest);
        ("peers", J.List (List.map peer_json t.peers));
      ]

  (* --- lifecycle --- *)

  let create ?(registry = R.default) ?(interval_s = 1.0)
      ?(idle_timeout_s = 60.0) ?addr ~node_id ~backend ~port ~peers () =
    let server = Tcp.listen ?addr ~port () in
    let peers =
      List.map
        (fun (host, port) ->
          {
            p_host = host;
            p_port = port;
            p_state = Idle;
            p_node_id = None;
            p_attempts = 0;
            p_rounds = 0;
            p_last_error = None;
          })
        peers
    in
    let t =
      {
        node_id;
        backend;
        interval_s;
        idle_timeout_s;
        m = metrics registry;
        mutex = Mutex.create ();
        store = KV.empty;
        server;
        peers;
        dial_threads = [];
      }
    in
    refresh_store_gauges t;
    refresh_peer_gauge t;
    Tcp.start server ~timeout_s:idle_timeout_s (serve_connection t);
    t

  (* Start the periodic dial threads (separate from [create] so a node
     can be driven purely by [sync_now]). *)
  let start_dialers t =
    t.dial_threads <-
      List.map (fun peer -> Thread.create (dialer t) peer) t.peers

  (* The dialers finish their round and are joined before the responders
     are shut down, as the shared stop sequence runs [release] first. *)
  let stop t =
    Tcp.stop t.server ~release:(fun () -> List.iter Thread.join t.dial_threads)
end
