(* vstamp serve: one real replica on the network — a Stamped_kv store
   served over the vstamp-sync/2 framed protocol (lib/net), converging
   with its peers through periodic anti-entropy rounds, with the HTTP
   observability plane (/metrics, /healthz, /stats.json, /peers.json)
   embedded. *)

open Cmdliner
open Vstamp_core
open Common

let serve sync_port http_port addr peers node_id backend interval duration
    puts port_file quiet =
  if interval <= 0.0 then die "--interval needs a positive cadence";
  if duration < 0.0 then die "--duration needs a non-negative duration";
  let backend =
    or_die (find_backend (Option.value ~default:Backend.default_key backend))
  in
  let peers = List.map (parse_hostport ~flag:"--peer") peers in
  let puts =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i ->
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
        | None -> die "--put %s: expected KEY=VALUE" spec)
      puts
  in
  let node_id =
    match node_id with
    | Some id -> id
    | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  let registry = Vstamp_obs.Registry.create () in
  let node =
    start_node ~registry ~interval_s:interval ~addr ~node_id ~backend
      ~port:sync_port ~peers
  in
  List.iter (fun (key, value) -> node.put ~key value) puts;
  let health () =
    [
      ("node_id", Jx.String node_id);
      ("sync_port", Jx.Int node.sync_port);
      ("store_keys", Jx.Int (List.length (node.keys ())));
    ]
  in
  let srv =
    bind ~addr ~port:http_port (fun () ->
        try
          HE.create ~registry ~health ~peers:node.peers_json ~addr
            ~port:http_port ()
        with Unix.Unix_error _ as e ->
          node.stop ();
          raise e)
  in
  (* two lines: the sync port, then the HTTP port *)
  write_ports port_file [ node.sync_port; HE.port srv ];
  if not quiet then
    Format.printf
      "serve: node %s syncing on %s:%d (%d peer%s, every %gs), http on \
       http://%s:%d (/metrics /healthz /stats.json /peers.json) — \
       SIGINT/SIGTERM for graceful shutdown@."
      node_id addr node.sync_port (List.length peers)
      (if List.length peers = 1 then "" else "s")
      interval addr (HE.port srv);
  let stop = ref false in
  on_stop_signals (fun () -> stop := true);
  node.start_dialers ();
  let t0 = Unix.gettimeofday () in
  while
    (not !stop) && (duration = 0.0 || Unix.gettimeofday () -. t0 < duration)
  do
    Thread.delay 0.1
  done;
  node.stop ();
  HE.stop srv;
  if not quiet then
    Format.printf "serve: node %s stopped (%d keys)@." node_id
      (List.length (node.keys ()))

let cmd =
  let sync_port =
    port ~default:9470
      ~doc:"TCP port for the vstamp-sync/2 protocol (0 for ephemeral)"
  in
  let http_port =
    Arg.(
      value & opt port_conv 9464
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:"Port for the embedded HTTP plane (0 for ephemeral)")
  in
  let peers =
    Arg.(
      value & opt_all string []
      & info [ "peer" ] ~docv:"HOST:PORT"
          ~doc:
            "A peer's sync endpoint; repeatable.  Each peer gets its own \
             dial thread running an anti-entropy round every --interval, \
             each on a connection of its own, backing off exponentially \
             (0.2s doubling, capped at 5s) while the peer is down")
  in
  let node_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "node-id" ] ~docv:"ID"
          ~doc:"Node id for the handshake (default: hostname-pid)")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Anti-entropy round cadence per peer")
  in
  let puts =
    Arg.(
      value & opt_all string []
      & info [ "put" ] ~docv:"KEY=VALUE"
          ~doc:"Seed the store with a write before syncing; repeatable")
  in
  let port_file =
    port_file
      ~doc:
        "Write the bound ports (sync then HTTP, one per line) to FILE once \
         listening — for scripts using ephemeral ports"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a networked anti-entropy node: a stamped key-value replica \
          speaking the framed vstamp-sync/2 protocol on TCP, converging \
          with its --peer nodes through periodic engine sessions \
          (frontier offer, delta request, reconcile), with /metrics, \
          /healthz, /stats.json and /peers.json served per node")
    Term.(
      const serve $ sync_port $ http_port $ addr $ peers $ node_id $ backend
      $ interval $ duration $ puts $ port_file $ quiet)
