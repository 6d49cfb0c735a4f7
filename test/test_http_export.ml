(* The embedded telemetry server, exercised over real loopback
   sockets: response shapes of every endpoint, concurrent scrapes,
   event streaming, graceful shutdown. *)

open Vstamp_obs

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let get_ok srv path =
  match Http_export.Client.get ~port:(Http_export.port srv) path with
  | Ok (status, body) -> (status, body)
  | Error m -> Alcotest.failf "GET %s failed: %s" path m

let with_server ?health ?recent f =
  let registry = Registry.create () in
  let srv = Http_export.create ~registry ?health ?recent ~port:0 () in
  Fun.protect ~finally:(fun () -> Http_export.stop srv) (fun () ->
      f registry srv)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i =
    i + m <= n && (String.sub haystack i m = needle || go (i + 1))
  in
  m = 0 || go 0

(* --- endpoints --- *)

let test_metrics_endpoint () =
  with_server (fun registry srv ->
      Metric.add (Registry.counter registry "soak_ops_total") 42;
      Metric.set (Registry.gauge registry "soak_depth") 7.0;
      let status, body = get_ok srv "/metrics" in
      check_int "status" 200 status;
      check_bool "TYPE line" true
        (contains body "# TYPE soak_ops_total counter");
      check_bool "counter sample" true (contains body "soak_ops_total 42");
      check_bool "gauge sample" true (contains body "soak_depth 7"))

let test_stats_json_endpoint () =
  with_server (fun registry srv ->
      Metric.add (Registry.counter registry "soak_ops_total") 3;
      let status, body = get_ok srv "/stats.json" in
      check_int "status" 200 status;
      match Jsonx.of_string (String.trim body) with
      | Error m -> Alcotest.failf "stats.json did not parse: %s" m
      | Ok j ->
          check_int "counter value" 3
            (Option.value ~default:(-1)
               (Option.bind (Jsonx.member "soak_ops_total" j) Jsonx.to_int)))

let test_healthz_endpoint () =
  with_server
    ~health:(fun () -> [ ("last_step", Jsonx.Int 99) ])
    (fun registry srv ->
      (* a violation counter must flip the reported status *)
      let status, body = get_ok srv "/healthz" in
      check_int "status" 200 status;
      let j =
        match Jsonx.of_string (String.trim body) with
        | Ok j -> j
        | Error m -> Alcotest.failf "healthz did not parse: %s" m
      in
      check_string "ok status" "ok"
        (Option.value ~default:"?"
           (Option.bind (Jsonx.member "status" j) Jsonx.to_str));
      check_int "health callback field" 99
        (Option.value ~default:(-1)
           (Option.bind (Jsonx.member "last_step" j) Jsonx.to_int));
      check_bool "uptime present" true
        (Option.is_some (Jsonx.member "uptime_s" j));
      Metric.inc
        (Registry.counter registry
           "vstamp_invariant_violations_total{monitor=\"stamps\"}");
      let _, body2 = get_ok srv "/healthz" in
      let j2 =
        match Jsonx.of_string (String.trim body2) with
        | Ok j -> j
        | Error m -> Alcotest.failf "healthz did not parse: %s" m
      in
      check_string "violations status" "violations"
        (Option.value ~default:"?"
           (Option.bind (Jsonx.member "status" j2) Jsonx.to_str));
      check_int "violation count" 1
        (Option.value ~default:(-1)
           (Option.bind (Jsonx.member "invariant_violations" j2) Jsonx.to_int)))

let test_lag_json_endpoint () =
  with_server (fun registry srv ->
      (* empty registry: the endpoint answers with null/empty defaults *)
      let status, body = get_ok srv "/lag.json" in
      check_int "status" 200 status;
      (match Jsonx.of_string (String.trim body) with
      | Error m -> Alcotest.failf "lag.json did not parse: %s" m
      | Ok j ->
          check_bool "width null before publication" true
            (Jsonx.member "frontier_width" j = Some Jsonx.Null));
      (* publish the convergence view and read it back *)
      Convergence.publish_lag ~registry [| 0; 2 |];
      Convergence.publish_matrix ~registry
        (Convergence.matrix ~leq:( <= ) [| 1; 2 |]);
      Metric.add (Registry.counter registry "sim_sync_shipped_bytes_total") 50;
      let _, body2 = get_ok srv "/lag.json" in
      match Jsonx.of_string (String.trim body2) with
      | Error m -> Alcotest.failf "lag.json did not parse: %s" m
      | Ok j ->
          let num path name =
            match
              Option.bind
                (Option.bind (Jsonx.member path j) (Jsonx.member name))
                Jsonx.to_float
            with
            | Some f -> f
            | None -> Alcotest.failf "missing %s.%s" path name
          in
          Alcotest.(check (float 0.)) "replica 1 lag" 2. (num "replica_lag" "1");
          Alcotest.(check (float 0.))
            "dominated pair" 1.
            (num "divergence_pairs" "dominated");
          Alcotest.(check (float 0.))
            "delta counter surfaced" 50.
            (num "sync_delta" "sim_sync_shipped_bytes_total");
          check_bool "index lists the endpoint" true
            (let _, index = get_ok srv "/" in
             contains index "/lag.json"))

let test_idspace_json_endpoint () =
  with_server (fun registry srv ->
      (* empty registry: empty families, null counters *)
      let status, body = get_ok srv "/idspace.json" in
      check_int "status" 200 status;
      (match Jsonx.of_string (String.trim body) with
      | Error m -> Alcotest.failf "idspace.json did not parse: %s" m
      | Ok j ->
          check_bool "empty idspace object" true
            (Jsonx.member "idspace" j = Some (Jsonx.Obj []));
          check_bool "null reclaimed counter" true
            (Jsonx.member "reclaimed_bits_total" j = Some Jsonx.Null));
      (* publish an inventory and read the families back *)
      let inv = Idspace.create () in
      let r0 = Idspace.seed inv [ "" ] in
      let _ = Idspace.fork inv r0 ~left:[ "0" ] ~right:[ "1" ] in
      Idspace.publish ~registry inv;
      let _, body2 = get_ok srv "/idspace.json" in
      match Jsonx.of_string (String.trim body2) with
      | Error m -> Alcotest.failf "idspace.json did not parse: %s" m
      | Ok j ->
          let num path name =
            match
              Option.bind
                (Option.bind (Jsonx.member path j) (Jsonx.member name))
                Jsonx.to_float
            with
            | Some f -> f
            | None -> Alcotest.failf "missing %s.%s" path name
          in
          Alcotest.(check (float 0.)) "live replicas" 2. (num "idspace" "live_replicas");
          Alcotest.(check (float 0.)) "id bits" 2. (num "idspace" "id_bits");
          Alcotest.(check (float 0.)) "fork op counted" 1. (num "ops" "fork");
          check_bool "index lists the endpoint" true
            (let _, index = get_ok srv "/" in
             contains index "/idspace.json"))

let test_not_found_and_method () =
  with_server (fun _ srv ->
      let status, _ = get_ok srv "/nope" in
      check_int "404" 404 status;
      let status, _ = get_ok srv "/" in
      check_int "index ok" 200 status)

let test_events_json_ring () =
  with_server ~recent:4 (fun _ srv ->
      let sink = Http_export.event_sink srv in
      for i = 1 to 6 do
        Sink.emit sink
          (Event.v ~ts:(Event.Step i) "soak.tick" [ ("i", Jsonx.Int i) ])
      done;
      (* capacity 4: only events 3..6 survive *)
      check_int "ring trimmed" 4 (List.length (Http_export.recent_events srv));
      let status, body = get_ok srv "/events.json" in
      check_int "status" 200 status;
      check_bool "oldest trimmed" false (contains body "\"i\":1}");
      check_bool "oldest kept is 3" true (contains body "\"i\":3}");
      check_bool "newest kept" true (contains body "\"i\":6}");
      let _, body2 = get_ok srv "/events.json?n=1" in
      check_bool "n=1 keeps newest only" false (contains body2 "\"i\":5}");
      check_bool "n=1 keeps newest" true (contains body2 "\"i\":6}"))

(* --- flight recorder + alert endpoints --- *)

let test_range_json_absent () =
  with_server (fun _ srv ->
      let status, body = get_ok srv "/range.json" in
      check_int "404 without a recorder" 404 status;
      check_bool "explains itself" true (contains body "no flight recorder"))

let test_range_json () =
  let registry = Registry.create () in
  let tsdb = Tsdb.create () in
  Tsdb.observe tsdb ~now_s:10. ~kind:Tsdb.Gauge "depth" 2.;
  Tsdb.observe tsdb ~now_s:11. ~kind:Tsdb.Gauge "depth" 4.;
  let srv = Http_export.create ~registry ~tsdb ~port:0 () in
  Fun.protect ~finally:(fun () -> Http_export.stop srv) (fun () ->
      (* no metric parameter: the index *)
      let status, body = get_ok srv "/range.json" in
      check_int "index status" 200 status;
      let j =
        match Jsonx.of_string (String.trim body) with
        | Ok j -> j
        | Error m -> Alcotest.failf "index did not parse: %s" m
      in
      check_bool "metric listed" true (contains body "\"depth\"");
      check_int "series count" 1
        (Option.value ~default:(-1)
           (Option.bind (Jsonx.member "series" j) Jsonx.to_int));
      check_bool "footprint reported" true
        (Option.is_some (Jsonx.member "footprint_bytes" j));
      (* explicit absolute window *)
      let status, body =
        get_ok srv "/range.json?metric=depth&from=9&to=12&step=10"
      in
      check_int "query status" 200 status;
      let j =
        match Jsonx.of_string (String.trim body) with
        | Ok j -> j
        | Error m -> Alcotest.failf "range did not parse: %s" m
      in
      check_bool "kind" true
        (Option.bind (Jsonx.member "kind" j) Jsonx.to_str = Some "gauge");
      (match Jsonx.member "points" j with
      | Some (Jsonx.List [ p ]) ->
          check_bool "bucket max" true
            (Option.bind (Jsonx.member "max" p) Jsonx.to_float = Some 4.);
          check_bool "bucket avg" true
            (Option.bind (Jsonx.member "avg" p) Jsonx.to_float = Some 3.)
      | _ -> Alcotest.fail "expected one bucket");
      (* unknown metrics answer with an empty series, not an error *)
      let status, body = get_ok srv "/range.json?metric=nope&from=0&to=1" in
      check_int "unknown metric is 200" 200 status;
      check_bool "empty points" true (contains body "\"points\":[]");
      (* malformed parameters are a client error *)
      let status, _ = get_ok srv "/range.json?metric=depth&from=xyz" in
      check_int "bad from" 400 status;
      let status, _ = get_ok srv "/range.json?metric=depth&step=-1" in
      check_int "bad step" 400 status;
      check_bool "index lists the endpoint" true
        (let _, index = get_ok srv "/" in
         contains index "/range.json"))

let test_alerts_json () =
  with_server (fun _ srv ->
      let status, body = get_ok srv "/alerts.json" in
      check_int "404 without an engine" 404 status;
      check_bool "explains itself" true (contains body "no alert engine"));
  let registry = Registry.create () in
  let rule =
    match Alert.parse_rule "deep depth >= 5" with
    | Ok (Some r) -> r
    | _ -> Alcotest.fail "rule did not parse"
  in
  let alerts = Alert.create ~registry [ rule ] in
  Metric.set (Registry.gauge registry "depth") 9.;
  Alert.eval ~now_s:1. alerts;
  let srv = Http_export.create ~registry ~alerts ~port:0 () in
  Fun.protect ~finally:(fun () -> Http_export.stop srv) (fun () ->
      let status, body = get_ok srv "/alerts.json" in
      check_int "status" 200 status;
      check_bool "rule state served" true (contains body "\"state\":\"firing\"");
      check_bool "firing gauge exported" true
        (let _, metrics = get_ok srv "/metrics" in
         contains metrics "vstamp_alerts_firing{rule=\"deep\"} 1");
      check_bool "index lists the endpoint" true
        (let _, index = get_ok srv "/" in
         contains index "/alerts.json"))

(* --- /events ring wraparound --- *)

let parse_events_json body =
  match Jsonx.of_string (String.trim body) with
  | Error m -> Alcotest.failf "events.json did not parse: %s" m
  | Ok (Jsonx.List items) ->
      List.map
        (fun j ->
          match Event.of_json j with
          | Ok e -> e
          | Error m -> Alcotest.failf "torn event in events.json: %s" m)
        items
  | Ok _ -> Alcotest.fail "events.json is not a list"

let test_events_ring_wraparound () =
  with_server ~recent:8 (fun _ srv ->
      let sink = Http_export.event_sink srv in
      (* fill far past capacity: only the newest 8 survive *)
      for i = 1 to 100 do
        Sink.emit sink
          (Event.v ~ts:(Event.Step i) "soak.tick" [ ("i", Jsonx.Int i) ])
      done;
      let _, body = get_ok srv "/events.json" in
      let events = parse_events_json body in
      check_int "ring holds capacity" 8 (List.length events);
      let idx e =
        match List.assoc_opt "i" e.Event.fields with
        | Some (Jsonx.Int i) -> i
        | _ -> Alcotest.fail "event lost its field"
      in
      Alcotest.(check (list int))
        "oldest dropped, order preserved"
        [ 93; 94; 95; 96; 97; 98; 99; 100 ]
        (List.map idx events);
      (* the stream resumes cleanly after wraparound: backlog is the
         wrapped ring, then live events append *)
      let result = ref (Error "not run") in
      let reader =
        Thread.create
          (fun () ->
            result :=
              Http_export.Client.get ~timeout_s:10.0
                ~port:(Http_export.port srv) "/events")
          ()
      in
      Thread.delay 0.2;
      Sink.emit sink
        (Event.v ~ts:(Event.Step 101) "soak.tick" [ ("i", Jsonx.Int 101) ]);
      Thread.delay 0.2;
      Http_export.stop srv;
      Thread.join reader;
      match !result with
      | Error m -> Alcotest.failf "stream after wraparound failed: %s" m
      | Ok (status, body) ->
          check_int "stream status" 200 status;
          let lines =
            String.split_on_char '\n' (String.trim body)
            |> List.filter (fun l -> String.trim l <> "")
          in
          check_int "backlog + live line" 9 (List.length lines);
          check_bool "oldest was dropped from backlog" false
            (contains body "\"i\":92}");
          check_bool "live event streamed" true (contains body "\"i\":101}");
          List.iter
            (fun l ->
              match Event.of_string l with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "torn stream line %S: %s" l m)
            lines)

let test_events_json_never_torn_under_load () =
  with_server ~recent:16 (fun _ srv ->
      let sink = Http_export.event_sink srv in
      let stop = ref false in
      let emitter =
        Thread.create
          (fun () ->
            let i = ref 0 in
            while not !stop do
              incr i;
              Sink.emit sink
                (Event.v ~ts:(Event.Step !i) "soak.tick"
                   [ ("i", Jsonx.Int !i) ])
            done)
          ()
      in
      (* every fetch while the ring churns must be a well-formed list
         of well-formed events, never a torn line *)
      for _ = 1 to 25 do
        let _, body = get_ok srv "/events.json?n=10" in
        let events = parse_events_json body in
        check_bool "n respected" true (List.length events <= 10)
      done;
      stop := true;
      Thread.join emitter)

(* --- concurrency --- *)

let test_concurrent_scrapes () =
  with_server (fun registry srv ->
      Metric.add (Registry.counter registry "soak_ops_total") 1;
      let failures = ref 0 in
      let mutex = Mutex.create () in
      let scraper () =
        for _ = 1 to 5 do
          match
            Http_export.Client.get ~port:(Http_export.port srv) "/metrics"
          with
          | Ok (200, body) when contains body "soak_ops_total" -> ()
          | _ ->
              Mutex.lock mutex;
              incr failures;
              Mutex.unlock mutex
        done
      in
      let threads = List.init 8 (fun _ -> Thread.create scraper ()) in
      List.iter Thread.join threads;
      check_int "no failed scrape" 0 !failures;
      check_bool "request counter advanced" true
        (Http_export.requests srv >= 40))

(* --- streaming --- *)

let test_events_stream () =
  let registry = Registry.create () in
  let srv = Http_export.create ~registry ~port:0 () in
  let sink = Http_export.event_sink srv in
  Sink.emit sink (Event.v "soak.backlog" [ ("k", Jsonx.Int 0) ]);
  let result = ref (Error "not run") in
  let reader =
    Thread.create
      (fun () ->
        result :=
          Http_export.Client.get ~timeout_s:10.0
            ~port:(Http_export.port srv) "/events")
      ()
  in
  (* let the subscriber attach, then publish live events *)
  Thread.delay 0.2;
  for i = 1 to 3 do
    Sink.emit sink (Event.v "soak.live" [ ("k", Jsonx.Int i) ])
  done;
  Thread.delay 0.2;
  (* stop terminates the chunked stream, releasing the reader *)
  Http_export.stop srv;
  Thread.join reader;
  match !result with
  | Error m -> Alcotest.failf "streaming GET failed: %s" m
  | Ok (status, body) ->
      check_int "status" 200 status;
      check_bool "backlog replayed" true (contains body "soak.backlog");
      check_bool "live events streamed" true (contains body "\"k\":3}");
      let lines =
        String.split_on_char '\n' (String.trim body)
        |> List.filter (fun l -> String.trim l <> "")
      in
      check_int "one JSONL line per event" 4 (List.length lines);
      List.iter
        (fun l ->
          match Event.of_string l with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "bad event line %S: %s" l m)
        lines

(* --- lifecycle --- *)

let test_graceful_stop () =
  let registry = Registry.create () in
  let srv = Http_export.create ~registry ~port:0 () in
  let port = Http_export.port srv in
  check_bool "running" true (Http_export.running srv);
  let status, _ = get_ok srv "/healthz" in
  check_int "served before stop" 200 status;
  Http_export.stop srv;
  Http_export.stop srv;
  (* idempotent *)
  check_bool "stopped" false (Http_export.running srv);
  match Http_export.Client.get ~timeout_s:1.0 ~port "/healthz" with
  | Ok (status, _) -> Alcotest.failf "served after stop: %d" status
  | Error _ -> ()

(* A client that sent only half a request head must not hold up [stop]
   for the handler's receive timeout. *)
let test_stop_with_half_request () =
  let registry = Registry.create () in
  let srv = Http_export.create ~registry ~port:0 () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Http_export.stop srv;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Http_export.port srv));
      let half = "GET /metrics HTTP/1.1\r\nHost: loc" in
      ignore (Unix.write_substring fd half 0 (String.length half));
      (* let the handler block in its read *)
      Thread.delay 0.2;
      let t0 = Unix.gettimeofday () in
      Http_export.stop srv;
      check_bool "stop returned promptly" true
        (Unix.gettimeofday () -. t0 < 1.0))

let test_ephemeral_ports_distinct () =
  with_server (fun _ a ->
      with_server (fun _ b ->
          check_bool "distinct ephemeral ports" true
            (Http_export.port a <> Http_export.port b);
          check_bool "nonzero" true (Http_export.port a > 0)))

(* --- methods: HEAD and 405 --- *)

let request_ok ?meth srv path =
  match
    Http_export.Client.request ?meth ~port:(Http_export.port srv) path
  with
  | Ok (status, headers, body) -> (status, headers, body)
  | Error m ->
      Alcotest.failf "%s %s failed: %s"
        (Option.value ~default:"GET" meth)
        path m

let header name headers =
  List.assoc_opt (String.lowercase_ascii name)
    (List.map (fun (k, v) -> (String.lowercase_ascii k, v)) headers)

let test_head_matches_get () =
  with_server (fun registry srv ->
      Metric.add (Registry.counter registry "soak_ops_total") 5;
      List.iter
        (fun path ->
          let _, get_headers, get_body = request_ok srv path in
          let status, head_headers, head_body =
            request_ok ~meth:"HEAD" srv path
          in
          check_int (path ^ " HEAD status") 200 status;
          check_string (path ^ " HEAD body empty") "" head_body;
          check_bool (path ^ " content-length matches GET") true
            (header "content-length" head_headers
            = Some (string_of_int (String.length get_body)));
          check_bool (path ^ " content-type matches GET") true
            (header "content-type" head_headers
            = header "content-type" get_headers))
        [ "/"; "/metrics"; "/stats.json" ];
      (* /healthz embeds a live uptime, so only shape is stable *)
      let status, headers, body = request_ok ~meth:"HEAD" srv "/healthz" in
      check_int "/healthz HEAD status" 200 status;
      check_string "/healthz HEAD body empty" "" body;
      check_bool "/healthz content-length positive" true
        (match header "content-length" headers with
        | Some n -> int_of_string_opt n <> None && int_of_string n > 0
        | None -> false);
      (* HEAD on a missing path is still a 404, still bodyless *)
      let status, _, body = request_ok ~meth:"HEAD" srv "/nope" in
      check_int "HEAD 404" 404 status;
      check_string "HEAD 404 body empty" "" body)

let test_unsupported_method_405 () =
  with_server (fun _ srv ->
      List.iter
        (fun meth ->
          let status, headers, _ = request_ok ~meth srv "/metrics" in
          check_int (meth ^ " is 405") 405 status;
          check_bool (meth ^ " lists allowed methods") true
            (header "allow" headers = Some "GET, HEAD"))
        [ "POST"; "PUT"; "DELETE" ])

(* --- client receive timeout --- *)

let test_client_timeout () =
  (* a listener that accepts but never answers must not hang the
     client: the configured receive deadline turns it into an error *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let started = Unix.gettimeofday () in
      match Http_export.Client.get ~timeout_s:0.5 ~port "/healthz" with
      | Ok (status, _) -> Alcotest.failf "silent server answered: %d" status
      | Error _ ->
          let elapsed = Unix.gettimeofday () -. started in
          check_bool "gave up promptly" true (elapsed < 4.0))

(* --- federation: /cluster.json over two live member servers --- *)

let test_cluster_json_absent () =
  with_server (fun _ srv ->
      let status, body = get_ok srv "/cluster.json" in
      check_int "404 without a cluster callback" 404 status;
      check_bool "explains itself" true (contains body "no cluster"))

let test_cluster_federation () =
  (* two member servers with their own registries… *)
  let mk id =
    let registry = Registry.create () in
    let srv =
      Http_export.create ~registry
        ~health:(fun () -> [ ("node", Jsonx.String id) ])
        ~port:0 ()
    in
    (registry, srv)
  in
  let reg_a, srv_a = mk "node-a" in
  let _reg_b, srv_b = mk "node-b" in
  Metric.add (Registry.counter reg_a "soak_ops_total") 7;
  let nodes =
    [
      { Cluster.id = "node-a"; host = "127.0.0.1";
        port = Http_export.port srv_a };
      { Cluster.id = "node-b"; host = "127.0.0.1";
        port = Http_export.port srv_b };
      (* …plus one that is down *)
      { Cluster.id = "node-c"; host = "127.0.0.1"; port = 1 };
    ]
  in
  (* …federated behind a third server's /cluster.json *)
  let parent_reg = Registry.create () in
  let parent =
    Http_export.create ~registry:parent_reg
      ~cluster:(fun () ->
        Cluster.collect ~timeout_s:2.0
          ~meta:[ ("trace", Jsonx.String "t-123") ]
          nodes)
      ~port:0 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Http_export.stop parent;
      Http_export.stop srv_a;
      Http_export.stop srv_b)
    (fun () ->
      let status, body = get_ok parent "/cluster.json" in
      check_int "status" 200 status;
      let j =
        match Jsonx.of_string (String.trim body) with
        | Ok j -> j
        | Error m -> Alcotest.failf "cluster.json did not parse: %s" m
      in
      let int name =
        Option.value ~default:(-1)
          (Option.bind (Jsonx.member name j) Jsonx.to_int)
      in
      check_bool "schema" true
        (Option.bind (Jsonx.member "schema" j) Jsonx.to_str
        = Some Cluster.schema);
      check_int "nodes_total" 3 (int "nodes_total");
      check_int "nodes_up" 2 (int "nodes_up");
      check_bool "meta passed through" true
        (Option.bind (Jsonx.member "trace" j) Jsonx.to_str = Some "t-123");
      match Jsonx.member "nodes" j with
      | Some (Jsonx.List rows) ->
          check_int "one row per node" 3 (List.length rows);
          let row id =
            match
              List.find_opt
                (fun r ->
                  Option.bind (Jsonx.member "id" r) Jsonx.to_str = Some id)
                rows
            with
            | Some r -> r
            | None -> Alcotest.failf "node %s missing from roll-up" id
          in
          let up r =
            Option.bind (Jsonx.member "up" r) Jsonx.to_bool = Some true
          in
          check_bool "node-a up" true (up (row "node-a"));
          check_bool "node-b up" true (up (row "node-b"));
          check_bool "node-c down" false (up (row "node-c"));
          check_bool "member health federated" true
            (Option.bind
               (Option.bind (Jsonx.member "health" (row "node-a"))
                  (Jsonx.member "node"))
               Jsonx.to_str
            = Some "node-a");
          check_bool "member stats federated" true
            (Option.bind
               (Option.bind (Jsonx.member "stats" (row "node-a"))
                  (Jsonx.member "soak_ops_total"))
               Jsonx.to_int
            = Some 7);
          check_bool "down node records its error" true
            (Option.is_some (Jsonx.member "error" (row "node-c")));
          check_bool "index lists the endpoint" true
            (let _, index = get_ok parent "/" in
             contains index "/cluster.json")
      | _ -> Alcotest.fail "cluster.json has no nodes list")

let () =
  Alcotest.run "http_export"
    [
      ( "endpoints",
        [
          Alcotest.test_case "/metrics" `Quick test_metrics_endpoint;
          Alcotest.test_case "/stats.json" `Quick test_stats_json_endpoint;
          Alcotest.test_case "/healthz" `Quick test_healthz_endpoint;
          Alcotest.test_case "/lag.json" `Quick test_lag_json_endpoint;
          Alcotest.test_case "/idspace.json" `Quick test_idspace_json_endpoint;
          Alcotest.test_case "404 and index" `Quick test_not_found_and_method;
          Alcotest.test_case "/events.json ring" `Quick test_events_json_ring;
          Alcotest.test_case "/range.json without recorder" `Quick
            test_range_json_absent;
          Alcotest.test_case "/range.json" `Quick test_range_json;
          Alcotest.test_case "/alerts.json" `Quick test_alerts_json;
        ] );
      ( "ring wraparound",
        [
          Alcotest.test_case "backlog wrap + stream resume" `Quick
            test_events_ring_wraparound;
          Alcotest.test_case "no torn lines under churn" `Quick
            test_events_json_never_torn_under_load;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "8 threads x 5 scrapes" `Quick
            test_concurrent_scrapes;
        ] );
      ( "streaming",
        [ Alcotest.test_case "/events chunked feed" `Quick test_events_stream ]
      );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "stop with a half-sent request" `Quick
            test_stop_with_half_request;
          Alcotest.test_case "ephemeral ports" `Quick
            test_ephemeral_ports_distinct;
        ] );
      ( "methods",
        [
          Alcotest.test_case "HEAD matches GET" `Quick test_head_matches_get;
          Alcotest.test_case "405 with Allow" `Quick
            test_unsupported_method_405;
        ] );
      ( "client",
        [ Alcotest.test_case "receive timeout" `Quick test_client_timeout ] );
      ( "federation",
        [
          Alcotest.test_case "/cluster.json without callback" `Quick
            test_cluster_json_absent;
          Alcotest.test_case "two live members + one down" `Quick
            test_cluster_federation;
        ] );
    ]
