open Vstamp_core
module B = (val Backend.get Backend.default_key : Backend.S)
module N = Vstamp_net.Node.Make (B)
module Codec = Vstamp_codec.Wire.Make (B)
module Frame = Vstamp_net.Frame
module Proto = Vstamp_net.Proto
module Registry = Vstamp_obs.Registry
module Metric = Vstamp_obs.Metric

type member = {
  node : N.t;
  port : int;
  peers : int list;
  tx : Metric.counter;
  errors : Metric.counter;
}

type t = member array

let node_id i = Printf.sprintf "bench-n%d" i

let hello i = { Proto.node_id = node_id i; backend = Backend.default_key; proto = Proto.version }

(* Node i dials i+1, i+2, ... (mod n): a full mesh, so one sync_now on
   a writer reaches every node. *)
let peer_order ~nodes i = List.init (nodes - 1) (fun d -> (i + d + 1) mod nodes)

let reserve_ports n =
  let socks =
    List.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0)
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

(* Every node must know every peer's port when it is created, so the
   ports are reserved first; a port taken in between is retried. *)
let boot ~nodes =
  let rec attempt left =
    let ports = reserve_ports nodes in
    let started = ref [] in
    match
      Array.init nodes (fun i ->
          let registry = Registry.create () in
          let peers = peer_order ~nodes i in
          let node =
            N.create ~registry ~idle_timeout_s:10. ~node_id:(node_id i)
              ~backend:Backend.default_key ~port:ports.(i)
              ~peers:(List.map (fun j -> ("127.0.0.1", ports.(j))) peers)
              ()
          in
          started := node :: !started;
          {
            node;
            port = ports.(i);
            peers;
            tx = Registry.counter registry "net_tx_bytes_total";
            errors = Registry.counter registry "net_protocol_errors_total";
          })
    with
    | t -> t
    | exception (Unix.Unix_error (Unix.EADDRINUSE, _, _) as e) ->
        List.iter N.stop !started;
        if left = 0 then raise e else attempt (left - 1)
  in
  attempt 5

(* After [stop] every connection thread has been joined, so the sent
   byte counters are final. *)
let stop t = Array.iter (fun m -> N.stop m.node) t

let total field t = Array.fold_left (fun acc m -> acc + Metric.count (field m)) 0 t

let tx_bytes = total (fun m -> m.tx)

let protocol_errors = total (fun m -> m.errors)

(* A stopped node's stamps, read through its own protocol without
   changing its store: stand in for its first peer, take the Offer
   (its whole frontier, Wire-encoded), want nothing and return
   nothing.  Its other peers are down and refuse the connection. *)
let offered_stamps t i =
  let m = t.(i) in
  let j = List.hd m.peers in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close lfd)
    (fun () ->
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.(j).port));
      Unix.listen lfd 1;
      let offer = ref (Error "no connection") in
      let session fd =
        let recv () =
          match Frame.read fd with
          | Ok (Some (payload, _)) -> Proto.decode payload
          | Ok None -> Error "closed"
          | Error e -> Error (Format.asprintf "%a" Frame.pp_error e)
        in
        let send msg = ignore (Frame.write fd (Proto.encode msg)) in
        match recv () with
        | Ok (Proto.Hello _) -> (
            send (Proto.Hello_ack (hello j));
            match recv () with
            | Ok (Proto.Offer (_, frontier)) ->
                offer := Ok (List.map (fun (key, stamp, _) -> (key, stamp)) frontier);
                send (Proto.Want []);
                ignore (recv ());
                send (Proto.Result []);
                ignore (recv ())
            | _ -> offer := Error "expected Offer")
        | _ -> offer := Error "expected Hello"
      in
      let serve () =
        try
          match Unix.select [ lfd ] [] [] 10. with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept lfd in
              Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> session fd)
        with Unix.Unix_error (e, _, _) -> offer := Error (Unix.error_message e)
      in
      let th = Thread.create serve () in
      ignore (N.sync_now m.node);
      Thread.join th;
      !offer)
