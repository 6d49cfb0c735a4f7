(* vstamp soak: the long-running soak driver behind the live telemetry
   plane — one process, or with --cluster N a parent that forks N soak
   workers, federates their telemetry and merges their span logs. *)

open Cmdliner
open Vstamp_core
open Vstamp_sim
open Common
module Obs_registry = Vstamp_obs.Registry
module Obs_sink = Vstamp_obs.Sink
module Obs_event = Vstamp_obs.Event
module Tr = Vstamp_obs.Trace_ctx

(* One continuous key-value phase: three server replicas take causal
   puts/gets/deletes and anti-entropy rounds, all counted by
   Kv_node.Obs into the live registry. *)
let soak_kv_phase rng ~ops_n =
  let open Vstamp_kvs in
  let keys = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |] in
  let nodes = Array.init 3 (fun i -> Kv_node.create ~id:i) in
  let rec go rng k =
    if k = 0 then rng
    else
      let op, rng =
        Rng.pick_weighted rng
          [ (5, `Put); (4, `Get); (1, `Delete); (2, `Sync) ]
      in
      let ni, rng = Rng.int rng (Array.length nodes) in
      let ki, rng = Rng.int rng (Array.length keys) in
      let key = keys.(ki) in
      (match op with
      | `Put ->
          let _, context = Kv_node.get nodes.(ni) key in
          nodes.(ni) <-
            Kv_node.put nodes.(ni) ~key ~context (Printf.sprintf "v%d" k)
      | `Get -> ignore (Kv_node.get nodes.(ni) key)
      | `Delete ->
          let _, context = Kv_node.get nodes.(ni) key in
          nodes.(ni) <- Kv_node.delete nodes.(ni) ~key ~context
      | `Sync ->
          let nj = (ni + 1) mod Array.length nodes in
          let a, b = Kv_node.anti_entropy nodes.(ni) nodes.(nj) in
          nodes.(ni) <- a;
          nodes.(nj) <- b);
      go rng (k - 1)
  in
  go rng ops_n

(* One continuous file-sync phase: two devices share some files,
   create others independently (colliding paths surface as conflicts),
   edit concurrently, and reconcile — counted by Sync.Obs. *)
let soak_sync_phase rng =
  let open Vstamp_panasync in
  let content rng tag =
    let n, rng = Rng.int rng 48 in
    (Printf.sprintf "%s:%s" tag (String.make (8 + n) '#'), rng)
  in
  let add store path rng =
    let c, rng = content rng path in
    (Store.add_new store ~path ~content:c, rng)
  in
  let merge = Sync.Merge (fun ~left ~right -> left ^ "|" ^ right) in
  let a = Store.create ~name:"left" and b = Store.create ~name:"right" in
  let a, rng = add a "notes.txt" rng in
  let a, rng = add a "todo.txt" rng in
  let b, rng = add b "photos.idx" rng in
  (* the same logical path created independently on both devices: an
     unrelated-lineage conflict the stamps cannot order *)
  let a, rng = add a "shared.cfg" rng in
  let b, rng = add b "shared.cfg" rng in
  let a, b, _ = Sync.session ~policy:merge a b in
  (* concurrent edits of a now-shared file: a genuine stamp conflict *)
  let c1, rng = content rng "notes-left" in
  let c2, rng = content rng "notes-right" in
  let a = Store.edit a ~path:"notes.txt" ~content:c1 in
  let b = Store.edit b ~path:"notes.txt" ~content:c2 in
  let a, b, _ = Sync.session ~policy:merge a b in
  (* a one-sided edit: propagation, no conflict *)
  let c3, rng = content rng "todo" in
  let a = Store.edit a ~path:"todo.txt" ~content:c3 in
  let a, b, _ = Sync.session ~policy:merge a b in
  ignore (Sync.converged a b);
  rng

(* One stamped-KV anti-entropy phase: ad-hoc replicas write
   concurrently and reconcile — the kvs_sync_* delta ledger counted by
   Stamped_kv.Obs (a creation round, a concurrent round and an
   already-equal round, so shipped/minimal/redundant all move). *)
let soak_stamped_kv_phase rng =
  let open Vstamp_kvs in
  let value rng tag =
    let n, rng = Rng.int rng 24 in
    (Printf.sprintf "%s#%d" tag n, rng)
  in
  let v1, rng = value rng "x" in
  let v2, rng = value rng "y" in
  let v3, rng = value rng "x'" in
  let a = Stamped_kv.put Stamped_kv.empty ~key:"x" v1 in
  let a = Stamped_kv.put a ~key:"y" v2 in
  let a, b = Stamped_kv.sync a Stamped_kv.empty in
  let b = Stamped_kv.put b ~key:"x" v3 in
  let a = Stamped_kv.put a ~key:"x" v1 in
  let a, b = Stamped_kv.sync a b in
  let a, b = Stamped_kv.sync a b in
  ignore (Stamped_kv.converged a b : bool);
  rng

let soak_checkpoint ~history ~registry ~srv ~sink ~t0 ~iteration ~final =
  let j =
    Jx.Obj
      [
        ("schema", Jx.String "vstamp-soak-checkpoint/1");
        ("final", Jx.Bool final);
        ("iteration", Jx.Int iteration);
        ("elapsed_s", Jx.Float (Unix.gettimeofday () -. t0));
        ("events_total", Jx.Int (Obs_sink.emitted sink));
        ("requests_total", Jx.Int (HE.requests srv));
        ("port", Jx.Int (HE.port srv));
        ("registry", Obs_registry.to_json registry);
      ]
  in
  Vstamp_obs.Bench_store.append ~file:history j

(* Raised by the simulator's event sink once a stop is requested or
   --duration has run out: an iteration can run for minutes (sync-star
   at --ops 300), and either must end it at the next simulator step. *)
exception Stopped

let soak port addr duration iterations n_ops seed backend sampling
    checkpoint_every history events_out port_file quiet partition_weather
    churn_rate rules_file retention record_every tsdb_out node_id span_out
    trace_parent stamp_seed net_port net_peers =
  let tracker = or_die (tracker_for ~backend Tracker.stamps) in
  (match partition_weather with
  | Some s when not (s >= 0.0 && s <= 1.0) ->
      die "--partition-weather needs a severity in [0, 1]"
  | _ -> ());
  (match churn_rate with
  | Some r when not (r >= 0.0) -> die "--churn needs a non-negative rate"
  | _ -> ());
  if record_every <= 0.0 then die "--record-every needs a positive cadence";
  let rules =
    match rules_file with
    | None -> None
    | Some file -> (
        match Jsonl.read_file file with
        | Error m -> die "--rules %s: %s" file m
        | Ok text -> (
            match Vstamp_obs.Alert.parse_rules text with
            | Ok rs -> Some rs
            | Error m -> die "--rules %s: %s" file m))
  in
  let retention_s =
    match retention with
    | None -> None
    | Some dur -> (
        match Vstamp_obs.Alert.duration_of_string dur with
        | Ok s when s > 0.0 -> Some s
        | Ok _ -> die "--retention needs a positive duration"
        | Error m -> die "--retention: %s" m)
  in
  let sampling =
    match or_die sampling with
    (* soak default: sampled monitors — full I2/I3 checking on every
       step would dominate the workload (EXPERIMENTS E13) *)
    | Vstamp_obs.Monitor.Always -> Vstamp_obs.Monitor.Every_n 8
    | s -> s
  in
  let registry = Obs_registry.create () in
  (* Distributed tracing: with --span-out every iteration (and the
     sync rounds inside it) becomes a span appended to a JSONL log;
     with --trace-parent those spans continue the launching process's
     trace, so a whole cluster's workers land in one trace (merged by
     `vstamp report --cluster`). *)
  let trace_root =
    match trace_parent with
    | None -> None
    | Some h -> (
        match Tr.of_header h with
        | Ok ctx -> Some ctx
        | Error m -> die "--trace-parent: %s" m)
  in
  let span_oc =
    match span_out with
    | None -> None
    | Some file -> Some (open_out_bin file)
  in
  if span_oc <> None || trace_root <> None then begin
    let sink =
      match span_oc with
      | None -> fun _ -> ()
      | Some oc ->
          fun sp ->
            output_string oc (Tr.span_to_string sp);
            output_char oc '\n';
            flush oc
    in
    Tr.attach ~registry ~sink ~node:node_id ?parent:trace_root ()
  end;
  (* Each iteration advances this stamp and labels its span with it:
     inside one process the labels are linearly ordered by [update],
     and across a cluster the parent forks the seed so every worker's
     labels stay mutually comparable (domain "cluster"). *)
  let soak_stamp = ref (Option.value ~default:Stamp.seed stamp_seed) in
  let stop = ref false in
  let iterations_done = ref 0 in
  let last_step = ref 0 in
  let health () =
    [
      ("last_step", Jx.Int !last_step);
      ("iterations", Jx.Int !iterations_done);
      ("sampling", Jx.String (Vstamp_obs.Monitor.sampling_to_string sampling));
    ]
  in
  (* Flight recorder: a bounded multi-resolution history of every
     registry metric, sampled on the recorder cadence.  [--retention]
     sizes the rings so the coarsest tier reaches back that far. *)
  let tsdb =
    let capacity =
      match retention_s with
      | None -> 240
      | Some r ->
          let coarsest_period = record_every *. 144.0 (* downsample^2 *) in
          max 16 (int_of_float (ceil (r /. coarsest_period)))
    in
    Vstamp_obs.Tsdb.create ~capacity ~tiers:3 ~downsample:12 ()
  in
  let runtime = Vstamp_obs.Runtime.create ~registry () in
  (* The alert engine's transition events must reach the live /events
     feed, but the sink tees off the server — which itself needs the
     engine for /alerts.json.  Break the cycle with an indirection. *)
  let sink_ref = ref Obs_sink.null in
  let alerts =
    Option.map
      (fun rs ->
        Vstamp_obs.Alert.create ~registry
          ~sink:(Obs_sink.of_fn (fun e -> Obs_sink.emit !sink_ref e))
          rs)
      rules
  in
  (* --net: a real networked anti-entropy plane alongside the workload —
     this process runs a Stamped_kv replica speaking vstamp-sync/2 on
     TCP, writes one key per iteration and converges with its
     --net-peer nodes; the peer lifecycle shows up on /peers.json and
     the net_* metric families on /metrics *)
  let net_node =
    Option.map
      (fun port ->
        let node =
          start_node ~registry ~interval_s:0.5 ~addr ~node_id
            ~backend:(Option.value ~default:Backend.default_key backend)
            ~port
            ~peers:(List.map (parse_hostport ~flag:"--net-peer") net_peers)
        in
        node.start_dialers ();
        node)
      net_port
  in
  let srv =
    (* a deeper /events ring than the default 64: one workload iteration
       emits ~n_ops sim events, which would evict sparse-but-important
       lines (alert transitions) before anyone can scrape them *)
    bind ~addr ~port (fun () ->
        HE.create ~registry ~health ~tsdb ?alerts
          ?peers:(Option.map (fun n -> n.peers_json) net_node)
          ~recent:512 ~addr ~port ())
  in
  write_ports port_file [ HE.port srv ];
  if not quiet then
    Format.printf
      "soak: serving on http://%s:%d (/metrics /healthz /stats.json \
       /range.json /alerts.json /events) — SIGINT/SIGTERM for graceful \
       shutdown@."
      addr (HE.port srv);
  let sink =
    let live = HE.event_sink srv in
    match events_out with
    | Some file -> Obs_sink.tee (Obs_sink.to_file file) live
    | None -> live
  in
  sink_ref := sink;
  (* GC sampling, alert evaluation and time-series capture run on
     their own cadence so history and debounce stay even-paced no
     matter how long an iteration takes. *)
  let record_tick () =
    Vstamp_obs.Runtime.sample runtime;
    (match alerts with Some a -> Vstamp_obs.Alert.eval a | None -> ());
    Vstamp_obs.Tsdb.sample tsdb registry
  in
  let recorder_stop = ref false in
  let recorder =
    Thread.create
      (fun () ->
        while not !recorder_stop do
          record_tick ();
          Thread.delay record_every
        done)
      ()
  in
  on_stop_signals (fun () -> stop := true);
  let t0 = Unix.gettimeofday () in
  let out_of_time () =
    duration > 0.0 && Unix.gettimeofday () -. t0 >= duration
  in
  let sim_sink =
    Obs_sink.of_fn (fun e ->
        if !stop || out_of_time () then raise Stopped;
        Obs_sink.emit sink e)
  in
  Vstamp_kvs.Kv_node.Obs.attach ~registry ();
  Vstamp_kvs.Stamped_kv.Obs.attach ~registry ();
  Vstamp_panasync.Sync.Obs.attach ~registry ();
  let sim_failures = Obs_registry.counter registry "soak_sim_failures_total" in
  let iter_counter = Obs_registry.counter registry "soak_iterations_total" in
  let step_gauge = Obs_registry.gauge registry "soak_last_step" in
  let workloads =
    [| "uniform"; "gossip"; "churn"; "partitioned"; "sync-star" |]
  in
  let expired i = !stop || (iterations > 0 && i > iterations) || out_of_time () in
  let rec loop i =
    if expired i then ()
    else begin
      let wname = workloads.((i - 1) mod Array.length workloads) in
      let iteration_body () =
        (match workload_of_name ~seed:(seed + i) ~n_ops wname with
        | Error (`Msg m) -> die "%s" m (* unreachable: names are known *)
        | Ok ops -> (
            (try
               ignore
                 (System.run ~with_oracle:false ~registry ~sink:sim_sink
                    ~check_invariants:true ~sampling ~sample_seed:(seed + i)
                    tracker ops
                   : System.result)
             with System.Invariant_violation _ ->
               Vstamp_obs.Metric.inc sim_failures);
            last_step := !last_step + List.length ops));
        let rng = Rng.make (seed + i) in
        let rng = soak_kv_phase rng ~ops_n:(max 16 (n_ops / 2)) in
        let rng = soak_sync_phase rng in
        let (_ : Rng.t) = soak_stamped_kv_phase rng in
        (* partition-weather phase: a 3-replica convergence scenario per
           iteration, publishing the vstamp_replica_lag /
           vstamp_divergence_* / vstamp_convergence_* gauges and the
           sim-level delta ledger into the live registry *)
        (match partition_weather with
        | None -> ()
        | Some severity ->
            let cfg =
              {
                Lag.default_config with
                Lag.severity;
                seed = seed + i;
                rounds = max 4 (n_ops / 32);
              }
            in
            ignore (Lag.run ~registry cfg tracker : Lag.result));
        (* replica-churn phase: a fork/retire lifecycle scenario per
           iteration, publishing the vstamp_idspace_* fragmentation and
           genealogy gauges (and the sim_churn_* op counters) into the
           live registry — the data behind /idspace.json and the `top`
           identity-space panel *)
        match churn_rate with
        | None -> ()
        | Some rate ->
            let cfg =
              {
                Churn.default_config with
                Churn.churn_rate = rate;
                seed = seed + i;
                rounds = max 4 (n_ops / 32);
              }
            in
            ignore (Churn.run ~registry cfg : Churn.result)
      in
      (* One iteration is one span, labelled with this worker's stamp
         after a fresh [update] — so the cluster merge can place the
         iteration in the causal order by stamp leq alone. *)
      let run_iteration () =
        if Tr.attached () then begin
          soak_stamp := Stamp.update !soak_stamp;
          Tr.with_span "soak.iteration"
            ~stamp:(Stamp.to_string !soak_stamp)
            ~domain:"cluster"
            ~attrs:[ ("iteration", Jx.Int i); ("workload", Jx.String wname) ]
            iteration_body
        end
        else iteration_body ()
      in
      (* a stop or the deadline cut the iteration short: not counted *)
      match run_iteration () with
      | exception Stopped -> ()
      | () ->
          incr iterations_done;
          Vstamp_obs.Metric.inc iter_counter;
          Vstamp_obs.Metric.set step_gauge (float_of_int !last_step);
          Option.iter
            (fun n -> n.put ~key:("soak-" ^ node_id) (string_of_int i))
            net_node;
          Obs_sink.emit sink
            (Obs_event.v ~ts:(Obs_event.Step !last_step) "soak.iteration"
               [ ("iteration", Jx.Int i); ("workload", Jx.String wname) ]);
          (match history with
          | Some file when checkpoint_every > 0 && i mod checkpoint_every = 0 ->
              soak_checkpoint ~history:file ~registry ~srv ~sink ~t0
                ~iteration:i ~final:false
          | _ -> ());
          loop (i + 1)
    end
  in
  loop 1;
  (* graceful shutdown.  One last recorder tick so the dump and the
     exit status reflect the end state, then stop the server *before*
     the final checkpoint and the events fsync — an in-flight scrape
     must never observe (or race) a half-written checkpoint. *)
  recorder_stop := true;
  Thread.join recorder;
  record_tick ();
  Option.iter (fun n -> n.stop ()) net_node;
  HE.stop srv;
  (match history with
  | Some file ->
      soak_checkpoint ~history:file ~registry ~srv ~sink ~t0
        ~iteration:!iterations_done ~final:true
  | None -> ());
  Obs_sink.flush sink;
  Obs_sink.close sink;
  (match tsdb_out with
  | Some file ->
      let alerts_json = Option.map Vstamp_obs.Alert.to_json alerts in
      write_data (Some file)
        (Jx.to_string (Vstamp_obs.Tsdb.to_json ?alerts:alerts_json tsdb) ^ "\n")
  | None -> ());
  Vstamp_kvs.Kv_node.Obs.detach ();
  Vstamp_kvs.Stamped_kv.Obs.detach ();
  Vstamp_panasync.Sync.Obs.detach ();
  if Tr.attached () then Tr.detach ();
  (match span_oc with None -> () | Some oc -> close_out_noerr oc);
  if not quiet then
    Format.printf
      "soak: %d iterations, %d logical steps, %d events, %d requests in \
       %.1fs@."
      !iterations_done !last_step (Obs_sink.emitted sink) (HE.requests srv)
      (Unix.gettimeofday () -. t0);
  match alerts with
  | Some a when Vstamp_obs.Alert.any_firing a ->
      let names =
        List.map
          (fun r -> r.Vstamp_obs.Alert.name)
          (Vstamp_obs.Alert.firing a)
      in
      Format.eprintf "soak: alerts firing at shutdown: %s@."
        (String.concat ", " names);
      exit 4
  | _ -> ()

(* --- soak --cluster: the multi-process cluster observatory ---

   The parent forks N soak workers (each with its own telemetry port,
   flight recorder and span log), hands each a trace header and a
   forked stamp seed, federates their telemetry behind /cluster.json,
   and on shutdown merges every node's span log into one causally
   ordered Chrome trace plus a causal-ordering validation report. *)

let soak_cluster n port addr duration iterations n_ops seed backend quiet
    partition_weather rules_file record_every port_file dir net net_base_port
    =
  if n < 2 then die "--cluster needs at least 2 workers";
  if net && (net_base_port < 1 || net_base_port + n > 65536) then
    die "--net-base-port %d leaves no room for %d workers" net_base_port n;
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path p = Filename.concat dir p in
  (* the parent's own spans (the launch) go to memory, written out at
     the end next to the workers' logs *)
  let parent_spans = ref [] in
  Tr.attach ~sink:(fun sp -> parent_spans := sp :: !parent_spans)
    ~node:"parent" ();
  (* one n-way fork of the seed: every worker's stamp lineage stays
     mutually comparable, and the launch (labelled with the seed
     itself) is strictly below every worker iteration — the cross-node
     ordered pairs wall clocks could not justify *)
  let worker_stamps = Stamp.fork_many Stamp.seed n in
  let spawn header i stamp =
    let name = Printf.sprintf "node-%d" i in
    (try Sys.remove (path (name ^ ".port")) with Sys_error _ -> ());
    let argv =
      [
        "vstamp"; "soak"; "--port"; "0"; "--addr"; addr;
        "--port-file"; path (name ^ ".port");
        "--node-id"; name;
        "--span-out"; path (name ^ ".spans.jsonl");
        "--trace-parent"; header;
        "--stamp-seed"; Stamp.to_string stamp;
        "--tsdb-out"; path (name ^ ".tsdb.json");
        "--seed"; string_of_int (seed + (1000 * i));
        "--ops"; string_of_int n_ops;
        "--record-every"; string_of_float record_every;
        "--no-history"; "--quiet";
      ]
      @ (if duration > 0.0 then [ "--duration"; string_of_float duration ]
         else [])
      @ (if iterations > 0 then
           [ "--iterations"; string_of_int iterations ]
         else [])
      @ (match partition_weather with
        | None -> []
        | Some s -> [ "--partition-weather"; string_of_float s ])
      @ (match rules_file with None -> [] | Some f -> [ "--rules"; f ])
      @ (match backend with None -> [] | Some b -> [ "--backend"; b ])
      @ (if not net then []
         else
           (* real-TCP anti-entropy: deterministic sync ports base+i,
              full mesh — every worker peers with every other *)
           [ "--net-port"; string_of_int (net_base_port + i) ]
           @ List.concat
               (List.init n (fun j ->
                    if j = i then []
                    else
                      [
                        "--net-peer";
                        Printf.sprintf "%s:%d" addr (net_base_port + j);
                      ])))
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list argv)
        Unix.stdin Unix.stdout Unix.stderr
    in
    (name, pid)
  in
  let workers =
    Tr.with_span "cluster.launch"
      ~stamp:(Stamp.to_string Stamp.seed)
      ~domain:"cluster"
      ~attrs:[ ("workers", Jx.Int n) ]
      (fun () ->
        let header =
          match Tr.current () with Some c -> Tr.to_header c | None -> ""
        in
        List.mapi (spawn header) worker_stamps)
  in
  (* children die with us: forward the signal, then keep reaping *)
  on_stop_signals (fun () ->
      List.iter
        (fun (_, pid) ->
          try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        workers);
  (* wait for every worker's ephemeral port to land in its port file *)
  let await_port name =
    let file = path (name ^ ".port") in
    let deadline = Unix.gettimeofday () +. 15.0 in
    let rec go () =
      let p =
        match Jsonl.read_file file with
        | Ok s -> int_of_string_opt (String.trim s)
        | Error _ -> None
      in
      match p with
      | Some p -> p
      | None ->
          if Unix.gettimeofday () > deadline then
            die "cluster: %s did not publish a port within 15s" name
          else begin
            (try Unix.sleepf 0.05
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go ()
          end
    in
    go ()
  in
  let nodes =
    List.map
      (fun (name, _) ->
        { Vstamp_obs.Cluster.id = name; host = "127.0.0.1";
          port = await_port name })
      workers
  in
  let trace_id =
    match Tr.root () with Some c -> c.Tr.trace_id | None -> "?"
  in
  let registry = Obs_registry.create () in
  let srv =
    bind ~addr ~port (fun () ->
        HE.create ~registry
          ~health:(fun () -> [ ("cluster_workers", Jx.Int n) ])
          ~cluster:(fun () ->
            Vstamp_obs.Cluster.collect ~timeout_s:2.0
              ~meta:[ ("trace", Jx.String trace_id) ]
              nodes)
          ~addr ~port ())
  in
  write_ports port_file [ HE.port srv ];
  if not quiet then begin
    Format.printf
      "cluster: %d workers (%s), parent on http://%s:%d/cluster.json, \
       trace %s@."
      n
      (String.concat ", "
         (List.map
            (fun nd ->
              Printf.sprintf "%s:%d" nd.Vstamp_obs.Cluster.id
                nd.Vstamp_obs.Cluster.port)
            nodes))
      addr (HE.port srv) trace_id;
    Format.print_flush ()
  end;
  (* reap until every worker has exited (waitpid is interruptible —
     the signal handler above already forwarded the TERM) *)
  let statuses = Hashtbl.create n in
  let rec reap () =
    if Hashtbl.length statuses < List.length workers then begin
      List.iter
        (fun (name, pid) ->
          if not (Hashtbl.mem statuses pid) then
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _, st -> Hashtbl.replace statuses pid (name, st)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                Hashtbl.replace statuses pid (name, Unix.WEXITED 0))
        workers;
      if Hashtbl.length statuses < List.length workers then begin
        (try Unix.sleepf 0.1
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        reap ()
      end
    end
  in
  reap ();
  HE.stop srv;
  Tr.detach ();
  write_data
    (Some (path "parent.spans.jsonl"))
    (Tr.spans_to_jsonl (List.rev !parent_spans));
  (* the cross-node post-mortem: merge every node's span log into one
     stamp-ordered timeline and validate every stamp-ordered pair
     against the wall clocks *)
  let all_spans =
    List.concat_map
      (fun file ->
        match Tmerge.load_file (path file) with
        | Ok sps -> sps
        | Error m ->
            Format.eprintf "cluster: %s@." m;
            [])
      ("parent.spans.jsonl"
      :: List.map (fun (name, _) -> name ^ ".spans.jsonl") workers)
  in
  let merged = Tmerge.merge ~leq:stamp_label_leq all_spans in
  write_data
    (Some (path "trace.chrome.json"))
    (Jx.to_string (Tmerge.to_chrome merged) ^ "\n");
  let rep = Tmerge.validate ~leq:stamp_label_leq all_spans in
  write_data
    (Some (path "causal-report.json"))
    (Jx.to_string (Tmerge.report_json rep) ^ "\n");
  if not quiet then
    Format.printf
      "cluster: %d spans over %d nodes, %d stamped, %d stamp-ordered \
       pairs (%d cross-node), %d contradictions — %s, %s@."
      rep.Tmerge.rp_spans
      (List.length rep.Tmerge.rp_nodes)
      rep.Tmerge.rp_stamped rep.Tmerge.rp_ordered_pairs
      rep.Tmerge.rp_cross_node_ordered_pairs
      (List.length rep.Tmerge.rp_contradictions)
      (path "trace.chrome.json")
      (path "causal-report.json");
  let worst =
    Hashtbl.fold
      (fun _ (name, st) acc ->
        match st with
        | Unix.WEXITED 0 -> acc
        | Unix.WEXITED c ->
            Format.eprintf "cluster: %s exited %d@." name c;
            max acc c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
            Format.eprintf "cluster: %s killed by signal@." name;
            max acc 1)
      statuses 0
  in
  if worst <> 0 then exit worst;
  if rep.Tmerge.rp_contradictions <> [] then begin
    Format.eprintf
      "cluster: %d span pairs contradict stamp order@."
      (List.length rep.Tmerge.rp_contradictions);
    exit 5
  end

let cmd =
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after N iterations (0: run until signalled)")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Append a ledger checkpoint every K iterations")
  in
  let history =
    Arg.(
      value
      & opt (some string) (Some "BENCH_history.jsonl")
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Checkpoint ledger (JSONL, appended); empty to disable")
  in
  let no_history =
    Arg.(
      value & flag
      & info [ "no-history" ] ~doc:"Do not append ledger checkpoints")
  in
  let events_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:
            "Also persist the live event feed to FILE as JSONL (flushed and \
             fsynced on shutdown)")
  in
  let partition_weather =
    Arg.(
      value
      & opt (some float) None
      & info [ "partition-weather" ] ~docv:"SEVERITY"
          ~doc:
            "Also run a partition-weather convergence phase each \
             iteration (severity in [0,1]: evolving asymmetric \
             connectivity), charting replica lag, divergence and \
             sync-delta efficiency on /metrics and /lag.json")
  in
  let churn =
    Arg.(
      value
      & opt (some float) None
      & info [ "churn" ] ~docv:"RATE"
          ~doc:
            "Also run a replica-churn phase each iteration (RATE: \
             expected forks and retire attempts per scenario round), \
             charting identity-space fragmentation, id-bit reclamation \
             and the partition-of-unity audit on /metrics and \
             /idspace.json (single-process soak only)")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Alert rules file (one `name condition [for duration]` per \
             line; see doc/telemetry.md).  Firing/resolved transitions \
             appear on /events and /alerts.json; alerts still firing at \
             shutdown make soak exit 4")
  in
  let retention =
    Arg.(
      value
      & opt (some string) None
      & info [ "retention" ] ~docv:"DURATION"
          ~doc:
            "How far back the flight recorder's coarsest tier reaches \
             (e.g. 30m, 4h; default ~9.6h at the default cadence).  \
             Memory stays fixed: the rings are sized once, up front")
  in
  let record_every =
    Arg.(
      value & opt float 1.0
      & info [ "record-every" ] ~docv:"SECONDS"
          ~doc:"Flight-recorder cadence: registry sampling, GC telemetry \
                and alert evaluation")
  in
  let tsdb_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "tsdb-out" ] ~docv:"FILE"
          ~doc:
            "Dump the recorded time series (and alert state) as JSON on \
             shutdown — the input of `vstamp report --dump`")
  in
  let node_id =
    Arg.(
      value & opt string "node-0"
      & info [ "node-id" ] ~docv:"NAME"
          ~doc:"This process's node name in span records")
  in
  let span_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-out" ] ~docv:"FILE"
          ~doc:
            "Record every iteration and sync round as a trace span, \
             appended to FILE as JSONL — the input of `vstamp report \
             --cluster`")
  in
  let trace_parent =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-parent" ] ~docv:"HEADER"
          ~doc:
            "Continue a propagated trace: a vstamp-trace/1 header (the \
             cluster driver passes the launch span's) that becomes the \
             parent of this process's spans")
  in
  let stamp_seed =
    Arg.(
      value
      & opt (some stamp_conv) None
      & info [ "stamp-seed" ] ~docv:"STAMP"
          ~doc:
            "Starting stamp for the per-iteration span labels, in the \
             paper's text notation (default the seed [1|0]); the \
             cluster driver forks the seed n ways so workers' labels \
             stay mutually comparable")
  in
  let cluster =
    Arg.(
      value & opt int 0
      & info [ "cluster" ] ~docv:"N"
          ~doc:
            "Fork N soak worker processes (each with its own telemetry \
             port, flight recorder and span log), federate them behind \
             this process's /cluster.json, and merge their span logs \
             into a causally ordered Chrome trace on shutdown")
  in
  let cluster_dir =
    Arg.(
      value & opt string "cluster-out"
      & info [ "cluster-dir" ] ~docv:"DIR"
          ~doc:
            "Where --cluster keeps its artifacts (port files, span \
             logs, tsdb dumps, trace.chrome.json, causal-report.json)")
  in
  let net_port =
    Arg.(
      value
      & opt (some port_conv) None
      & info [ "net-port" ] ~docv:"PORT"
          ~doc:
            "Also run a networked anti-entropy node: a stamped \
             key-value replica speaking vstamp-sync/2 on PORT (0 for \
             ephemeral) that writes one key per iteration and \
             converges with the --net-peer nodes; peer lifecycle on \
             /peers.json, net_* families on /metrics")
  in
  let net_peer =
    Arg.(
      value & opt_all string []
      & info [ "net-peer" ] ~docv:"HOST:PORT"
          ~doc:"A peer node's sync endpoint for --net-port; repeatable")
  in
  let net =
    Arg.(
      value & flag
      & info [ "net" ]
          ~doc:
            "With --cluster: wire the workers into a real-TCP full \
             mesh (deterministic sync ports from --net-base-port) so \
             anti-entropy rounds cross process boundaries")
  in
  let net_base_port =
    Arg.(
      value & opt int 9600
      & info [ "net-base-port" ] ~docv:"PORT"
          ~doc:"First sync port for --cluster --net (worker i gets \
                PORT+i)")
  in
  let wrap port addr duration iterations n_ops seed backend sampling
      checkpoint_every history no_history events_out port_file quiet
      partition_weather churn rules retention record_every tsdb_out node_id
      span_out trace_parent stamp_seed cluster cluster_dir net_port net_peer
      net net_base_port =
    if cluster > 0 then
      soak_cluster cluster port addr duration iterations n_ops seed backend
        quiet partition_weather rules record_every port_file cluster_dir net
        net_base_port
    else begin
      if net then die "--net needs --cluster (use --net-port standalone)";
      soak port addr duration iterations n_ops seed backend sampling
        checkpoint_every
        (if no_history then None else history)
        events_out port_file quiet partition_weather churn rules retention
        record_every tsdb_out node_id span_out trace_parent stamp_seed
        net_port net_peer
    end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-running soak driver: continuously exercises the simulator, \
          the replicated key-value store and file-sync sessions with \
          sampled invariant monitors on (one step in 8 unless \
          --sample-every or --sample-prob says otherwise), serving live \
          telemetry over HTTP (/metrics for Prometheus, /stats.json for \
          vstamp top, /range.json for recorded history, /alerts.json for \
          the alert plane, /events for streaming) and appending periodic \
          checkpoints to the bench ledger.  --cluster N forks N workers \
          and federates them behind /cluster.json; --cluster N --net \
          additionally wires the workers into a real-TCP anti-entropy \
          mesh")
    Term.(
      const wrap
      $ port ~default:9464
          ~doc:"Telemetry port (0 picks an ephemeral one; see --port-file)"
      $ addr $ duration $ iterations $ n_ops ~default:300 $ seed ~default:1
      $ backend $ sampling $ checkpoint_every $ history $ no_history
      $ events_out
      $ port_file
          ~doc:"Write the bound port to FILE (for scripts with --port 0)"
      $ quiet $ partition_weather $ churn $ rules $ retention $ record_every
      $ tsdb_out $ node_id $ span_out $ trace_parent $ stamp_seed $ cluster
      $ cluster_dir $ net_port $ net_peer $ net $ net_base_port)
