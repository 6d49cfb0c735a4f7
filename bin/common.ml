(* What the vstamp verbs share: every flag that two or more verbs take,
   defined once here as a term that takes only what differs between
   them, the converters and lookups behind those flags, the error exit
   and file helpers, the live-endpoint fetch, and the bind, node-start
   and stop-signal helpers of the long-running verbs. *)

open Cmdliner
open Vstamp_core
open Vstamp_sim
module HE = Vstamp_obs.Http_export
module Jx = Vstamp_obs.Jsonx
module Jsonl = Vstamp_obs.Jsonl
module Tmerge = Vstamp_obs.Trace_merge

let die fmt = Format.kasprintf (fun m -> Format.eprintf "error: %s@." m; exit 1) fmt

let or_die = function Ok v -> v | Error (`Msg m) -> die "%s" m

(* An invariant violation (--check-invariants) ends the run with exit 2. *)
let exit_on_violation f =
  try f ()
  with System.Invariant_violation _ as e ->
    Format.eprintf "error: %s@." (Printexc.to_string e);
    exit 2

(* Data goes to [output] verbatim (byte-identity matters for replay), or
   to stdout when no file is given; progress chatter only ever goes to
   stdout when the data went to a file. *)
let write_data output data =
  match output with
  | None -> print_string data
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data)

(* --- converters and lookups --- *)

let stamp_conv =
  let parse s =
    match Vstamp_codec.Text.stamp_of_string s with
    | Ok stamp -> Ok stamp
    | Error e -> Error (`Msg (Format.asprintf "%a" Vstamp_codec.Text.pp_error e))
  in
  Arg.conv (parse, Stamp.pp)

(* An integer or float flag that cmdliner rejects, naming the flag,
   when [ok] fails: a port the kernel would silently truncate must not
   reach a bind or a connect. *)
let checked base ~ok ~expected =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let port_conv =
  checked Arg.int ~ok:(fun p -> p >= 0 && p <= 65535)
    ~expected:"a port number in 0-65535"

(* 0 means no timeout, as for the socket option it sets *)
let timeout_conv =
  checked Arg.float ~ok:(fun t -> t >= 0.0)
    ~expected:"a non-negative number of seconds"

let parse_hostport ~flag spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let host = String.sub spec 0 i
      and port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" ->
          if p < 1 || p > 65535 then
            die "%s %s: port outside 1-65535" flag spec;
          (host, p)
      | _ -> die "%s %s: expected HOST:PORT" flag spec)
  | None -> die "%s %s: expected HOST:PORT" flag spec

(* One stamp tracker per keyed name backend; the list
   specification and the baselines are spelled out. *)
let tracker_names () =
  List.map Tracker.name (Tracker.of_registry ())
  @ [
      "stamps-noreduce"; "stamps-list"; "vv"; "dvv"; "oracle";
      "plausible-<slots>";
    ]

let tracker_of_name = function
  | "stamps-noreduce" -> Ok Tracker.stamps_nonreducing
  | "stamps-list" -> Ok Tracker.stamps_list
  | "vv" -> Ok Tracker.version_vectors
  | "dvv" -> Ok Tracker.dynamic_vv
  | "oracle" -> Ok Tracker.histories
  | s when String.length s > 10 && String.sub s 0 10 = "plausible-" -> (
      match int_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some k when k > 0 -> Ok (Tracker.plausible k)
      | _ -> Error (`Msg "plausible-<slots> needs a positive slot count"))
  | s -> (
      match
        List.find_opt
          (fun t -> String.equal (Tracker.name t) s)
          (Tracker.of_registry ())
      with
      | Some t -> Ok t
      | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown tracker %S (known: %s)" s
                  (String.concat ", " (tracker_names ())))))

let tracker_conv =
  Arg.conv
    ( tracker_of_name,
      fun ppf t -> Format.pp_print_string ppf (Tracker.name t) )

let find_backend key =
  match Backend.find key with
  | Some _ -> Ok key
  | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown backend %S (valid: %s)" key
              (String.concat ", " (Backend.keys ()))))

(* --backend KEY is shorthand for the stamp tracker over that name
   backend, and overrides --tracker; the valid set is the backend
   table's keys. *)
let tracker_for ~backend tracker =
  match backend with
  | None -> Ok tracker
  | Some key ->
      Result.bind (find_backend key) (fun key ->
          tracker_of_name (Tracker.stamp_tracker_name key))

let workload_of_name ~seed ~n_ops = function
  | "uniform" -> Ok (Workload.uniform ~seed ~n_ops ())
  | "deep-fork" -> Ok (Workload.deep_fork ~depth:(max 1 (n_ops / 2)) ())
  | "sync-star" ->
      Ok (Workload.sync_star ~peers:8 ~rounds:(max 1 (n_ops / 32)) ())
  | "gossip" ->
      Ok (Workload.gossip ~seed ~replicas:8 ~rounds:(max 1 (n_ops / 10)) ())
  | "churn" -> Ok (Workload.churn ~seed ~target:8 ~n_ops ())
  | "partitioned" ->
      Ok
        (Workload.partitioned ~seed ~replicas:8 ~groups:2 ~phases:4
           ~syncs_per_phase:(max 1 (n_ops / 40)) ())
  | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))

let load_ops ~workload ~seed ~n_ops = function
  | Some file -> (
      match Trace.load ~file with
      | Ok ops -> Ok ops
      | Error e -> Error (`Msg (Format.asprintf "%s: %a" file Trace.pp_error e)))
  | None -> workload_of_name ~seed ~n_ops workload

(* Stamp comparison over text labels, for the merge layer (which lives
   below the stamp mechanism and sees only strings).  Memoized: a
   cluster merge compares every label pair within a scope. *)
let stamp_label_leq : Tmerge.leq =
  let cache : (string, Stamp.t option) Hashtbl.t = Hashtbl.create 64 in
  let parse label =
    match Hashtbl.find_opt cache label with
    | Some v -> v
    | None ->
        let v =
          match Vstamp_codec.Text.stamp_of_string label with
          | Ok s -> Some s
          | Error _ -> None
        in
        Hashtbl.add cache label v;
        v
  in
  fun a b ->
    match (parse a, parse b) with
    | Some sa, Some sb -> Some (Stamp.leq sa sb)
    | _ -> None

(* --- workload flags --- *)

let tracker =
  Arg.(
    value
    & opt tracker_conv Tracker.stamps
    & info [ "t"; "tracker" ] ~docv:"TRACKER"
        ~doc:("Mechanism: " ^ String.concat ", " (tracker_names ())))

let backend =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          (Printf.sprintf
             "Name backend for the stamp tracker: %s.  Shorthand for \
              --tracker stamps[-BACKEND]; overrides --tracker."
             (String.concat ", " (Backend.keys ()))))

let workload =
  Arg.(
    value & opt string "uniform"
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:
          "Workload: uniform, deep-fork, sync-star, gossip, churn, \
           partitioned")

let seed ~default =
  Arg.(
    value & opt int default
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed")

let n_ops ~default =
  Arg.(
    value & opt int default
    & info [ "n"; "ops" ] ~docv:"N"
        ~doc:"Approximate operation count of each generated workload")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Replay a trace file instead of generating a workload")

let no_oracle =
  Arg.(
    value & flag
    & info [ "no-oracle" ] ~doc:"Skip the causal-history accuracy check")

let check_invariants =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Evaluate the mechanism's invariants (I1-I3 for stamps) after \
           every step; fail loudly with a minimal witness on violation")

let violation_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "violation-out" ] ~docv:"FILE"
        ~doc:
          "With --check-invariants: save the minimal failing op prefix to \
           FILE as a replayable trace")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the JSONL telemetry stream (sim.start / sim.step / \
           sim.result events, logical-step timestamps) of every run to FILE")

(* --sample-every / --sample-prob thin the invariant monitor; the
   probability draws come from the simulation RNG seeded with the
   workload seed, so a sampled run is as reproducible as the plain
   one.  [Always] means neither flag was given. *)
let sampling =
  let every =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Invariant monitors check only one step in N (plus the final \
             frontier, always)")
  and prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-prob" ] ~docv:"P"
          ~doc:
            "Invariant monitors check each step with probability P, drawn \
             from the deterministic simulation RNG")
  in
  let sampling_of sample_every sample_prob =
    match (sample_every, sample_prob) with
    | None, None -> Ok Vstamp_obs.Monitor.Always
    | Some n, None ->
        if n > 0 then Ok (Vstamp_obs.Monitor.Every_n n)
        else Error (`Msg "--sample-every needs a positive period")
    | None, Some p ->
        if p >= 0.0 && p <= 1.0 then Ok (Vstamp_obs.Monitor.Probability p)
        else Error (`Msg "--sample-prob needs a probability in [0, 1]")
    | Some _, Some _ ->
        Error (`Msg "--sample-every and --sample-prob are mutually exclusive")
  in
  Term.(const sampling_of $ every $ prob)

(* --- output flags --- *)

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")

let out ~doc =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output")

let limit =
  Arg.(
    value & opt int 20
    & info [ "limit" ] ~docv:"N" ~doc:"Table rows to show (worst first)")

let ignore_config =
  Arg.(
    value & flag
    & info [ "ignore-config" ]
        ~doc:
          "Compare runs even when their config blocks (iteration budgets, \
           workload scales) differ")

(* --- scenario flags (lag, churn) --- *)

let p_update =
  Arg.(
    value & opt float 0.5
    & info [ "p-update" ] ~docv:"P"
        ~doc:"Per-replica write probability per round")

let syncs_per_round =
  Arg.(
    value & opt int 2
    & info [ "syncs-per-round" ] ~docv:"N"
        ~doc:"Sync attempts per round (the weather may block them)")

let severity ~default =
  Arg.(
    value & opt float default
    & info [ "severity" ] ~docv:"S" ~doc:"Partition-weather severity in [0, 1]")

let epoch =
  Arg.(
    value & opt int 4
    & info [ "epoch" ] ~docv:"N" ~doc:"Weather epoch length, in rounds")

(* --- server flags (soak, serve) --- *)

let port ~default ~doc =
  Arg.(value & opt port_conv default & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let addr =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "addr" ] ~docv:"ADDR" ~doc:"Address to bind")

let duration =
  Arg.(
    value & opt float 0.0
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Stop after this long (0: run until signalled)")

let port_file ~doc =
  Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No chatter")

(* Run [create], which binds [addr]:[port]; a bind that fails (a port
   in use, say) is the user's error, reported in one line. *)
let bind ~addr ~port create =
  try create ()
  with Unix.Unix_error (e, _, _) ->
    die "cannot bind %s:%d: %s" addr port (Unix.error_message e)

(* The bound ports, one per line, for scripts racing an ephemeral
   (--port 0) bind. *)
let write_ports port_file ports =
  Option.iter
    (fun file ->
      write_data (Some file)
        (String.concat "" (List.map (Printf.sprintf "%d\n") ports)))
    port_file

let on_stop_signals f =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> f ())))
    [ Sys.sigint; Sys.sigterm ]

(* A vstamp-sync/2 node over the stamps of a backend picked at run
   time, seen through the calls the CLI makes. *)
type node = {
  sync_port : int;
  put : key:string -> string -> unit;
  keys : unit -> string list;
  peers_json : unit -> Jx.t;
  start_dialers : unit -> unit;
  stop : unit -> unit;
}

let start_node ~registry ~interval_s ~addr ~node_id ~backend ~port ~peers =
  let module B = (val Backend.get backend) in
  let module N = Vstamp_net.Node.Make (B) in
  let n =
    bind ~addr ~port (fun () ->
        N.create ~registry ~interval_s ~addr ~node_id ~backend ~port ~peers ())
  in
  {
    sync_port = N.port n;
    put = N.put n;
    keys = (fun () -> N.keys n);
    peers_json = (fun () -> N.peers_json n);
    start_dialers = (fun () -> N.start_dialers n);
    stop = (fun () -> N.stop n);
  }

(* --- live endpoints (top, scrape, lag, churn, report) --- *)

type live = { host : string; timeout_s : float; retries : int }

(* --host/--timeout/--retry.  The --retry check runs when cmdliner
   evaluates this term, so each verb puts it last: a malformed flag
   elsewhere is still cmdliner's usage error. *)
let live =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address")
  and timeout =
    Arg.(
      value & opt timeout_conv 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Socket timeout per fetch (a stalled endpoint errors out \
             instead of hanging)")
  and retry =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry a failed connection up to N times with exponential \
             backoff (0.2s doubling, capped at 5s) — for scripts racing \
             a soak process that is still binding its port.  HTTP errors \
             are not retried")
  in
  let make host timeout_s retries =
    if retries < 0 then die "--retry needs a non-negative count";
    { host; timeout_s; retries }
  in
  Term.(const make $ host $ timeout $ retry)

(* The live --port of a verb that otherwise runs its own scenario. *)
let live_port ~doc =
  Arg.(
    value
    & opt (some port_conv) None
    & info [ "p"; "port" ] ~docv:"PORT" ~doc)

(* GET [path].  Transport errors (refused connection, timeout) are
   retried with the reconnect backoff, so a live command racing a soak
   process that is still binding its port waits it out instead of
   dying on the first refusal.  HTTP-level errors are never retried:
   the server answered, it just doesn't like the request. *)
let get live ~port path =
  let rec go attempt =
    match
      HE.Client.get ~host:live.host ~timeout_s:live.timeout_s ~port path
    with
    | Error _ when attempt < live.retries ->
        Unix.sleepf (Vstamp_obs.Tcp.backoff_delay (attempt + 1));
        go (attempt + 1)
    | r -> r
  in
  go 0

let fetch_json live ~port path =
  match get live ~port path with
  | Ok (200, body) -> (
      match Jx.of_string (String.trim body) with
      | Ok j -> Ok j
      | Error m -> Error (Printf.sprintf "GET %s: bad JSON: %s" path m))
  | Ok (status, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path status)
  | Error m -> Error (Printf.sprintf "GET %s: %s" path m)
