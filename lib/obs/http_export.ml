(* A deliberately small HTTP/1.1 server: GET only, Connection: close,
   one thread per connection on a [Tcp] server.  The hot paths of the
   embedding process never block on a scrape — handlers only read
   registry snapshots and a guarded event ring. *)

type subscriber = {
  sub_mutex : Mutex.t;
  sub_cond : Condition.t;
  sub_queue : Event.t Queue.t;
  mutable sub_closed : bool;
}

let sub_queue_cap = 1024

let close_subscriber sub =
  Mutex.lock sub.sub_mutex;
  sub.sub_closed <- true;
  Condition.broadcast sub.sub_cond;
  Mutex.unlock sub.sub_mutex

type t = {
  registry : Registry.t;
  health : unit -> (string * Jsonx.t) list;
  tsdb : Tsdb.t option;
  alerts : Alert.t option;
  cluster : (unit -> Jsonx.t) option;
  peers : (unit -> Jsonx.t) option;
  server : Tcp.t;
  started_s : float;
  recent_cap : int;
  mutex : Mutex.t;
  (* everything below is guarded by [mutex] *)
  recent : Event.t Queue.t;
  mutable subscribers : subscriber list;
  mutable events_n : int;
  mutable requests_n : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- low-level socket IO --- *)

(* A writer must survive two signals-in-disguise: EINTR (a signal
   landed mid-write — retry from the same offset) and EPIPE (the peer
   hung up — with SIGPIPE ignored it surfaces as an error the caller
   treats as a normal hangup, never as a partial silent write). *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read until the blank line ending the request head (we never accept
   bodies), bounded so a hostile client cannot balloon memory. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then Error "request head too large"
    else
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | Some _
        when String.length s >= 4
             && (let rec find i =
                   i + 3 < String.length s
                   && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                        && s.[i + 3] = '\n')
                      || find (i + 1))
                 in
                 find 0) ->
          Ok s
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> if Buffer.length buf = 0 then Error "empty request" else Ok s
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Error "request timed out")
  in
  go ()

let parse_request_line head =
  match String.index_opt head '\n' with
  | None -> Error "no request line"
  | Some i -> (
      let line = String.trim (String.sub head 0 i) in
      match String.split_on_char ' ' line with
      | [ meth; target; version ]
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
          Ok (meth, target)
      | _ -> Error "malformed request line")

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let query = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | None -> None
            | Some j ->
                Some
                  ( String.sub kv 0 j,
                    String.sub kv (j + 1) (String.length kv - j - 1) ))
          (String.split_on_char '&' query)
      in
      (path, params)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Error"

(* [head] sends the headers a GET would (Content-Length included) with
   no body — the HEAD method contract. *)
let respond ?(head = false) ?(extra = []) fd ~status ~content_type body =
  let extra =
    String.concat "" (List.map (fun h -> h ^ "\r\n") extra)
  in
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\n\
        Content-Type: %s\r\n\
        Content-Length: %d\r\n\
        %sConnection: close\r\n\
        \r\n\
        %s"
       status (status_text status) content_type (String.length body) extra
       (if head then "" else body))

let respond_json ?head fd ~status j =
  respond ?head fd ~status ~content_type:"application/json"
    (Jsonx.to_string j ^ "\n")

(* --- handlers --- *)

let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let health_fields t =
  let uptime = Clock.now_s () -. t.started_s in
  let violations = Monitor.violations_total t.registry in
  let requests_n, events_n =
    locked t (fun () -> (t.requests_n, t.events_n))
  in
  [
    ("status", Jsonx.String (if violations = 0 then "ok" else "violations"));
    ("uptime_s", Jsonx.Float uptime);
    ("requests_total", Jsonx.Int requests_n);
    ("events_total", Jsonx.Int events_n);
    ("invariant_violations", Jsonx.Int violations);
  ]
  @ t.health ()

let recent_events t =
  locked t (fun () -> List.of_seq (Queue.to_seq t.recent))

let handle_events_json ?head t fd params =
  let events = recent_events t in
  let events =
    match
      Option.bind (List.assoc_opt "n" params) int_of_string_opt
    with
    | Some n when n >= 0 ->
        let len = List.length events in
        if len > n then List.filteri (fun i _ -> i >= len - n) events
        else events
    | _ -> events
  in
  respond_json ?head fd ~status:200
    (Jsonx.List (List.map Event.to_json events))

let write_chunk fd line =
  write_all fd
    (Printf.sprintf "%x\r\n%s\n\r\n" (String.length line + 1) line)

(* Stream the ring, then live events, as one JSONL line per chunk.
   The subscriber queue is bounded; when a client reads too slowly the
   oldest queued events are dropped so the feed stays live. *)
let handle_events_stream t fd =
  let sub =
    {
      sub_mutex = Mutex.create ();
      sub_cond = Condition.create ();
      sub_queue = Queue.create ();
      sub_closed = false;
    }
  in
  let backlog = locked t (fun () ->
      t.subscribers <- sub :: t.subscribers;
      List.of_seq (Queue.to_seq t.recent))
  in
  (* a subscriber that arrives after [stop] released the others must
     not wait for events that will never come *)
  if not (Tcp.running t.server) then close_subscriber sub;
  let unsubscribe () =
    locked t (fun () ->
        t.subscribers <- List.filter (fun s -> s != sub) t.subscribers)
  in
  Fun.protect ~finally:unsubscribe (fun () ->
      write_all fd
        "HTTP/1.1 200 OK\r\n\
         Content-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\n\
         Connection: close\r\n\
         \r\n";
      List.iter (fun e -> write_chunk fd (Event.to_string e)) backlog;
      let rec pump () =
        Mutex.lock sub.sub_mutex;
        while Queue.is_empty sub.sub_queue && not sub.sub_closed do
          Condition.wait sub.sub_cond sub.sub_mutex
        done;
        let batch = List.of_seq (Queue.to_seq sub.sub_queue) in
        Queue.clear sub.sub_queue;
        let closed = sub.sub_closed in
        Mutex.unlock sub.sub_mutex;
        List.iter (fun e -> write_chunk fd (Event.to_string e)) batch;
        if closed then write_all fd "0\r\n\r\n" else pump ()
      in
      pump ())

(* /range.json: the flight-recorder query endpoint.  Without [metric],
   the series index.  [from]/[to] accept absolute unix seconds or
   negative offsets relative to now; [step] defaults to a 1/100 slice
   of the window. *)
let handle_range_json ?head t fd params =
  match t.tsdb with
  | None ->
      respond ?head fd ~status:404 ~content_type:"text/plain"
        "no flight recorder attached\n"
  | Some tsdb -> (
      match List.assoc_opt "metric" params with
      | None -> respond_json ?head fd ~status:200 (Tsdb.index_json tsdb)
      | Some metric -> (
          let now = Clock.now_s () in
          let time_param name default =
            match List.assoc_opt name params with
            | None -> Ok default
            | Some s -> (
                match float_of_string_opt s with
                | Some f when f < 0. -> Ok (now +. f)
                | Some f -> Ok f
                | None -> Error name)
          in
          match (time_param "from" (now -. 300.), time_param "to" now) with
          | Error p, _ | _, Error p ->
              respond ?head fd ~status:400 ~content_type:"text/plain"
                (Printf.sprintf "bad %s parameter\n" p)
          | Ok from_s, Ok to_s -> (
              let default_step =
                let span = to_s -. from_s in
                if span > 0. then span /. 100. else 1.
              in
              match
                match List.assoc_opt "step" params with
                | None -> Ok default_step
                | Some s -> (
                    match float_of_string_opt s with
                    | Some f when f > 0. -> Ok f
                    | _ -> Error ())
              with
              | Error () ->
                  respond ?head fd ~status:400 ~content_type:"text/plain"
                    "bad step parameter\n"
              | Ok step_s ->
                  respond_json ?head fd ~status:200
                    (Tsdb.range_json tsdb ~metric ~from_s ~to_s ~step_s))))

let handle_alerts_json ?head t fd =
  match t.alerts with
  | None ->
      respond ?head fd ~status:404 ~content_type:"text/plain"
        "no alert engine attached\n"
  | Some alerts -> respond_json ?head fd ~status:200 (Alert.to_json alerts)

(* The federation endpoint: the roll-up callback fans out to the
   worker nodes, so it runs here in the connection thread and never
   blocks the embedding process. *)
let handle_cluster_json ?head t fd =
  match t.cluster with
  | None ->
      respond ?head fd ~status:404 ~content_type:"text/plain"
        "no cluster attached\n"
  | Some roll_up -> (
      match roll_up () with
      | j -> respond_json ?head fd ~status:200 j
      | exception _ ->
          respond ?head fd ~status:500 ~content_type:"text/plain"
            "cluster roll-up failed\n")

(* The peer-lifecycle endpoint: the callback snapshots the embedding
   node's dialer states (connected / backoff / attempts), so it is
   cheap and never blocks on the network. *)
let handle_peers_json ?head t fd =
  match t.peers with
  | None ->
      respond ?head fd ~status:404 ~content_type:"text/plain"
        "no peers attached\n"
  | Some snapshot -> (
      match snapshot () with
      | j -> respond_json ?head fd ~status:200 j
      | exception _ ->
          respond ?head fd ~status:500 ~content_type:"text/plain"
            "peer snapshot failed\n")

let handle_request t fd =
  match read_head fd with
  | Error _ -> respond fd ~status:400 ~content_type:"text/plain" "bad request\n"
  | Ok req_head -> (
      match parse_request_line req_head with
      | Error _ ->
          respond fd ~status:400 ~content_type:"text/plain" "bad request\n"
      | Ok (meth, _) when meth <> "GET" && meth <> "HEAD" ->
          respond fd ~status:405 ~extra:[ "Allow: GET, HEAD" ]
            ~content_type:"text/plain"
            "method not allowed; this server speaks GET and HEAD\n"
      | Ok (meth, target) -> (
          let head = String.equal meth "HEAD" in
          locked t (fun () -> t.requests_n <- t.requests_n + 1);
          let path, params = split_target target in
          match path with
          | "/metrics" ->
              respond ~head fd ~status:200
                ~content_type:prometheus_content_type
                (Registry.to_prometheus t.registry)
          | "/healthz" ->
              respond_json ~head fd ~status:200 (Jsonx.Obj (health_fields t))
          | "/stats.json" ->
              respond_json ~head fd ~status:200 (Registry.to_json t.registry)
          | "/lag.json" ->
              respond_json ~head fd ~status:200
                (Convergence.lag_json t.registry)
          | "/idspace.json" ->
              respond_json ~head fd ~status:200 (Idspace.view_json t.registry)
          | "/range.json" -> handle_range_json ~head t fd params
          | "/alerts.json" -> handle_alerts_json ~head t fd
          | "/cluster.json" -> handle_cluster_json ~head t fd
          | "/peers.json" -> handle_peers_json ~head t fd
          | "/events.json" -> handle_events_json ~head t fd params
          | "/events" ->
              if head then
                (* the headers a streaming GET would send; no body,
                   the stream is not entered *)
                write_all fd
                  "HTTP/1.1 200 OK\r\n\
                   Content-Type: application/x-ndjson\r\n\
                   Transfer-Encoding: chunked\r\n\
                   Connection: close\r\n\
                   \r\n"
              else handle_events_stream t fd
          | "/" ->
              respond ~head fd ~status:200 ~content_type:"text/plain"
                "vstamp telemetry: /metrics /healthz /stats.json /lag.json \
                 /idspace.json /range.json /alerts.json /cluster.json \
                 /peers.json /events /events.json\n"
          | _ ->
              respond ~head fd ~status:404 ~content_type:"text/plain"
                "not found\n"))

(* --- server lifecycle --- *)

let publish t e =
  let subs =
    locked t (fun () ->
        t.events_n <- t.events_n + 1;
        Queue.push e t.recent;
        while Queue.length t.recent > t.recent_cap do
          ignore (Queue.pop t.recent)
        done;
        t.subscribers)
  in
  List.iter
    (fun sub ->
      Mutex.lock sub.sub_mutex;
      Queue.push e sub.sub_queue;
      while Queue.length sub.sub_queue > sub_queue_cap do
        ignore (Queue.pop sub.sub_queue)
      done;
      Condition.signal sub.sub_cond;
      Mutex.unlock sub.sub_mutex)
    subs

let create ?(registry = Registry.default) ?(health = fun () -> []) ?tsdb
    ?alerts ?cluster ?peers ?(recent = 64) ?addr ~port () =
  let server = Tcp.listen ?addr ~port () in
  let t =
    {
      registry;
      health;
      tsdb;
      alerts;
      cluster;
      peers;
      server;
      started_s = Clock.now_s ();
      recent_cap = max 1 recent;
      mutex = Mutex.create ();
      recent = Queue.create ();
      subscribers = [];
      events_n = 0;
      requests_n = 0;
    }
  in
  (* a client must not pin a handler thread forever *)
  Tcp.start server ~timeout_s:10.0 (handle_request t);
  t

let port t = Tcp.port t.server

let event_sink t = Sink.of_fn (fun e -> publish t e)

let requests t = locked t (fun () -> t.requests_n)

let running t = Tcp.running t.server

(* The release step of the stop: streaming clients get their
   terminating chunk, while in-flight responses simply finish. *)
let stop t =
  Tcp.stop t.server ~release:(fun () ->
      List.iter close_subscriber (locked t (fun () -> t.subscribers)))

(* --- client --- *)

module Client = struct
  let rec read_all fd buf chunk =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_all fd buf chunk
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf chunk

  let find_sub s sub from =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go from

  let dechunk body =
    let buf = Buffer.create (String.length body) in
    let rec go off =
      match find_sub body "\r\n" off with
      | None -> Buffer.contents buf (* truncated stream: keep what we have *)
      | Some i -> (
          let len_str = String.trim (String.sub body off (i - off)) in
          match int_of_string_opt ("0x" ^ len_str) with
          | None | Some 0 -> Buffer.contents buf
          | Some len when i + 2 + len <= String.length body ->
              Buffer.add_string buf (String.sub body (i + 2) len);
              go (i + 2 + len + 2)
          | Some _ -> Buffer.contents buf)
    in
    go 0

  (* header names lowercased; values trimmed *)
  let parse_headers head =
    match String.split_on_char '\n' head with
    | [] -> []
    | _ :: lines ->
        List.filter_map
          (fun line ->
            let line = String.trim line in
            match String.index_opt line ':' with
            | None -> None
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 i),
                    String.trim
                      (String.sub line (i + 1) (String.length line - i - 1))
                  ))
          lines

  let request ?(host = "127.0.0.1") ?(timeout_s = 5.0) ?(meth = "GET") ~port
      path =
    match Tcp.connect ~host ~port ~timeout_s with
    | Error m -> Error m
    | Ok fd -> (
    match
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd
            (Printf.sprintf
               "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
               meth path host);
          read_all fd (Buffer.create 4096) (Bytes.create 4096))
    with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Sys_error m -> Error m
    | raw -> (
        match find_sub raw "\r\n\r\n" 0 with
        | None -> Error "malformed response: no header terminator"
        | Some i -> (
            let head = String.sub raw 0 i in
            let body =
              String.sub raw (i + 4) (String.length raw - i - 4)
            in
            let status_line =
              match String.index_opt head '\r' with
              | Some j -> String.sub head 0 j
              | None -> head
            in
            match String.split_on_char ' ' status_line with
            | _ :: code :: _ -> (
                match int_of_string_opt code with
                | None -> Error "malformed status line"
                | Some status ->
                    let headers = parse_headers head in
                    let chunked =
                      match List.assoc_opt "transfer-encoding" headers with
                      | Some v -> (
                          match find_sub (String.lowercase_ascii v) "chunked" 0
                          with
                          | Some _ -> true
                          | None -> false)
                      | None -> false
                    in
                    Ok
                      ( status,
                        headers,
                        if chunked then dechunk body else body ))
            | _ -> Error "malformed status line")))

  let get ?host ?timeout_s ~port path =
    match request ?host ?timeout_s ~port path with
    | Error m -> Error m
    | Ok (status, _, body) -> Ok (status, body)
end
