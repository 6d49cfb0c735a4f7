let max_connections = 64

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

type t = {
  listen_fd : Unix.file_descr;
  bound_addr : Unix.sockaddr;
  mutable accept_thread : Thread.t option;  (* set once, by [start] *)
  mutex : Mutex.t;
  (* everything below is guarded by [mutex] *)
  mutable stopping : bool;
  mutable conns : (int * (Thread.t * Unix.file_descr)) list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Send and receive timeouts, and no Nagle delay.  Every frame is
   written whole and each leg waits for the peer's reply, so Nagle's
   algorithm only ever holds back the tail that [Unix.write] splits off
   a write past 64 KiB, until the peer's delayed ACK (about 40 ms). *)
let configure fd ~timeout_s =
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s

let listen ?(addr = "127.0.0.1") ~port () =
  ignore_sigpipe ();
  let inet = Unix.inet_addr_of_string addr in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd max_connections
   with e ->
     close_quietly fd;
     raise e);
  {
    listen_fd = fd;
    bound_addr = Unix.getsockname fd;
    accept_thread = None;
    mutex = Mutex.create ();
    stopping = false;
    conns = [];
  }

let port t =
  match t.bound_addr with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0

let running t = not (locked t (fun () -> t.stopping))

let serve t ~timeout_s handler fd =
  let finally () =
    (* deregister before closing: [stop] only shuts down descriptors it
       can still see in the table, so it never touches a closed (and
       possibly recycled) one *)
    let self = Thread.id (Thread.self ()) in
    locked t (fun () -> t.conns <- List.remove_assoc self t.conns);
    close_quietly fd
  in
  Fun.protect ~finally (fun () ->
      (* an idle or vanished peer must not pin a thread forever *)
      try
        configure fd ~timeout_s;
        handler fd
      with Unix.Unix_error _ | Sys_error _ -> ())

let rec accept_loop t ~timeout_s handler =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      let admitted =
        locked t (fun () ->
            if t.stopping || List.length t.conns >= max_connections then false
            else begin
              let th = Thread.create (serve t ~timeout_s handler) fd in
              t.conns <- (Thread.id th, (th, fd)) :: t.conns;
              true
            end)
      in
      if not admitted then close_quietly fd;
      if running t then accept_loop t ~timeout_s handler
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      if running t then accept_loop t ~timeout_s handler
  | exception Unix.Unix_error _ -> ()

let start t ~timeout_s handler =
  t.accept_thread <-
    Some (Thread.create (fun () -> accept_loop t ~timeout_s handler) ())

let stop ?(release = ignore) t =
  let already =
    locked t (fun () ->
        let s = t.stopping in
        t.stopping <- true;
        s)
  in
  if not already then begin
    (* wake the accept thread with a throwaway connection to ourselves *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd t.bound_addr with Unix.Unix_error _ -> ());
       close_quietly fd
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    close_quietly t.listen_fd;
    release ();
    (* a receive-side shutdown ends a blocked or busy read at once but
       lets writes finish, so in-flight responses still go out *)
    let threads =
      locked t (fun () ->
          List.map
            (fun (_, (th, fd)) ->
              (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ());
              th)
            t.conns)
    in
    List.iter Thread.join threads
  end

let connect ~host ~port ~timeout_s =
  ignore_sigpipe ();
  match
    (* [inet_addr_of_string] raises [Failure] on anything that is not a
       literal address ("localhost" included) *)
    let inet =
      match Unix.inet_addr_of_string host with
      | addr -> addr
      | exception Failure _ -> (
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | [||] -> raise Not_found
          | addrs -> addrs.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       configure fd ~timeout_s;
       Unix.connect fd (Unix.ADDR_INET (inet, port))
     with e ->
       close_quietly fd;
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Not_found -> Error (Printf.sprintf "cannot resolve host %S" host)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let backoff_delay n = Float.min 5.0 (0.2 *. (2. ** float_of_int (n - 1)))
