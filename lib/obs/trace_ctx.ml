(* Distributed trace contexts.  A context names one position in one
   trace (trace id, span id, node); spans are finished intervals that
   carry the context plus attributes and, crucially, the version-stamp
   label of the data they acted on.  Stamps — not wall clocks — are what
   {!Trace_merge} later uses to causally order spans from different
   nodes, so a span's [stamp] is the bridge between the tracing layer
   and the paper's happens-before oracle.

   The ambient tracer mirrors the [Obs.attach]/[detach] pattern used by
   the sync layers: a process attaches at most one tracer; when none is
   attached every [with_span] is a plain function call. *)

type ctx = { trace_id : string; span_id : string; node : string }

type span = {
  sp_trace : string;
  sp_id : string;
  sp_parent : string option;
  sp_node : string;
  sp_name : string;
  sp_start_ns : int64;
  sp_end_ns : int64;
  sp_domain : string option;
      (* stamp comparison scope: stamps from unrelated seed lineages are
         formally comparable but causally meaningless, so merging only
         compares stamps of spans sharing a domain (and a trace) *)
  sp_stamp : string option;  (* text label of the stamp the span carried *)
  sp_attrs : (string * Jsonx.t) list;
}

(* --- id generation: splitmix64 over a per-process seed --- *)

let id_state = ref 0L

let id_seeded = ref false

let mix_seed n = id_state := Int64.logxor !id_state (Int64.of_int n)

(* Lazy so that a pre-draw [mix_seed] (attach folds the node name in)
   cannot suppress the pid/clock entropy: processes launched in the
   same instant still draw distinct ids. *)
let ensure_seeded () =
  if not !id_seeded then begin
    id_seeded := true;
    mix_seed (Unix.getpid ());
    mix_seed (Hashtbl.hash (Unix.gettimeofday ()))
  end

let set_id_seed n =
  id_state := Int64.of_int n;
  id_seeded := true

let next64 () =
  ensure_seeded ();
  id_state := Int64.add !id_state 0x9E3779B97F4A7C15L;
  let z = !id_state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hex64 v = Printf.sprintf "%016Lx" v

let fresh_span_id () = hex64 (next64 ())

let fresh_trace_id () = hex64 (next64 ()) ^ hex64 (next64 ())

let genesis ?(node = "local") () =
  { trace_id = fresh_trace_id (); span_id = fresh_span_id (); node }

let child c = { c with span_id = fresh_span_id () }

(* --- wire header (the sync-message envelope field) --- *)

let header_prefix = "vstamp-trace/1"

let to_header c =
  String.concat ";" [ header_prefix; c.trace_id; c.span_id; c.node ]

let of_header s =
  match String.split_on_char ';' s with
  | [ p; trace_id; span_id; node ]
    when String.equal p header_prefix && trace_id <> "" && span_id <> "" ->
      Ok { trace_id; span_id; node }
  | p :: _ when not (String.equal p header_prefix) ->
      Error (Printf.sprintf "unrecognized trace header %S" p)
  | _ -> Error "malformed trace header"

(* --- span (de)serialization --- *)

let span_equal a b =
  String.equal a.sp_trace b.sp_trace
  && String.equal a.sp_id b.sp_id
  && a.sp_parent = b.sp_parent
  && String.equal a.sp_node b.sp_node
  && String.equal a.sp_name b.sp_name
  && Int64.equal a.sp_start_ns b.sp_start_ns
  && Int64.equal a.sp_end_ns b.sp_end_ns
  && a.sp_domain = b.sp_domain && a.sp_stamp = b.sp_stamp
  && List.length a.sp_attrs = List.length b.sp_attrs
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Jsonx.equal v1 v2)
       a.sp_attrs b.sp_attrs

let span_to_json s =
  let opt name = function
    | None -> []
    | Some v -> [ (name, Jsonx.String v) ]
  in
  Jsonx.Obj
    ([
       ("trace", Jsonx.String s.sp_trace);
       ("span", Jsonx.String s.sp_id);
     ]
    @ opt "parent" s.sp_parent
    @ [
        ("node", Jsonx.String s.sp_node);
        ("name", Jsonx.String s.sp_name);
        ("start_ns", Jsonx.Int (Int64.to_int s.sp_start_ns));
        ("end_ns", Jsonx.Int (Int64.to_int s.sp_end_ns));
      ]
    @ opt "domain" s.sp_domain @ opt "stamp" s.sp_stamp
    @ match s.sp_attrs with [] -> [] | a -> [ ("attrs", Jsonx.Obj a) ])

let span_of_json json =
  let str name = Option.bind (Jsonx.member name json) Jsonx.to_str in
  let int name = Option.bind (Jsonx.member name json) Jsonx.to_int in
  match (str "trace", str "span", str "node", str "name") with
  | Some sp_trace, Some sp_id, Some sp_node, Some sp_name -> (
      match (int "start_ns", int "end_ns") with
      | Some start_ns, Some end_ns ->
          let sp_attrs =
            match Jsonx.member "attrs" json with
            | Some (Jsonx.Obj fields) -> fields
            | _ -> []
          in
          Ok
            {
              sp_trace;
              sp_id;
              sp_parent = str "parent";
              sp_node;
              sp_name;
              sp_start_ns = Int64.of_int start_ns;
              sp_end_ns = Int64.of_int end_ns;
              sp_domain = str "domain";
              sp_stamp = str "stamp";
              sp_attrs;
            }
      | _ -> Error "span: missing or non-integer start_ns/end_ns")
  | _ -> Error "span: missing trace/span/node/name field"

let span_to_string s = Jsonx.to_string (span_to_json s)

let span_of_string s =
  match Jsonx.of_string s with
  | Error e -> Error e
  | Ok json -> span_of_json json

let spans_to_jsonl spans =
  String.concat "" (List.map (fun s -> span_to_string s ^ "\n") spans)

let spans_of_jsonl = Jsonl.parse span_of_string

(* --- ambient tracer --- *)

type tracer = {
  t_sink : span -> unit;
  t_node : string;
  t_root : ctx;
  t_spans : Metric.counter option;
  t_mutex : Mutex.t;
}

type frame = {
  f_ctx : ctx;
  f_parent : string;
  f_name : string;
  f_start_ns : int64;
  mutable f_stamp : string option;
  mutable f_domain : string option;
  mutable f_attrs : (string * Jsonx.t) list;
}

let tracer : tracer option ref = ref None

let stack : frame list ref = ref []

let attach ?registry ?(sink = fun _ -> ()) ?(node = "local") ?parent () =
  ensure_seeded ();
  mix_seed (Hashtbl.hash node);
  let root = match parent with Some c -> c | None -> genesis ~node () in
  tracer :=
    Some
      {
        t_sink = sink;
        t_node = node;
        t_root = root;
        t_spans =
          Option.map (fun reg -> Registry.counter reg "trace_spans_total")
            registry;
        t_mutex = Mutex.create ();
      };
  stack := []

let detach () =
  tracer := None;
  stack := []

let attached () = Option.is_some !tracer

let node () = match !tracer with Some t -> t.t_node | None -> "local"

let root () = Option.map (fun t -> t.t_root) !tracer

let current () =
  match !tracer with
  | None -> None
  | Some t -> (
      match !stack with fr :: _ -> Some fr.f_ctx | [] -> Some t.t_root)

let emit t span =
  Mutex.lock t.t_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.t_mutex)
    (fun () ->
      t.t_sink span;
      match t.t_spans with Some c -> Metric.inc c | None -> ())

let run_span t ~parent ?stamp ?domain ?(attrs = []) name f =
  let ctx =
    {
      trace_id = parent.trace_id;
      span_id = fresh_span_id ();
      node = t.t_node;
    }
  in
  let frame =
    {
      f_ctx = ctx;
      f_parent = parent.span_id;
      f_name = name;
      f_start_ns = Clock.now_ns ();
      f_stamp = stamp;
      f_domain = domain;
      f_attrs = attrs;
    }
  in
  stack := frame :: !stack;
  let finish () =
    (match !stack with
    | fr :: rest when fr == frame -> stack := rest
    | _ -> stack := List.filter (fun fr -> fr != frame) !stack);
    emit t
      {
        sp_trace = ctx.trace_id;
        sp_id = ctx.span_id;
        sp_parent = Some frame.f_parent;
        sp_node = t.t_node;
        sp_name = frame.f_name;
        sp_start_ns = frame.f_start_ns;
        sp_end_ns = Clock.now_ns ();
        sp_domain = frame.f_domain;
        sp_stamp = frame.f_stamp;
        sp_attrs = frame.f_attrs;
      }
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      frame.f_attrs <- frame.f_attrs @ [ ("error", Jsonx.Bool true) ];
      finish ();
      raise e

let with_span ?stamp ?domain ?attrs name f =
  match !tracer with
  | None -> f ()
  | Some t ->
      let parent =
        match !stack with fr :: _ -> fr.f_ctx | [] -> t.t_root
      in
      run_span t ~parent ?stamp ?domain ?attrs name f

(* The receiving half of a propagated context: the caller hands over the
   wire header its peer sent and the new span becomes a child of the
   remote span, continuing the remote trace.  An unparseable header
   degrades to a local span rather than dropping instrumentation. *)
let with_remote_span ~header ?(attrs = []) name f =
  match !tracer with
  | None -> f ()
  | Some t -> (
      match of_header header with
      | Ok remote ->
          let attrs = attrs @ [ ("peer", Jsonx.String remote.node) ] in
          run_span t ~parent:remote ~attrs name f
      | Error _ ->
          let parent =
            match !stack with fr :: _ -> fr.f_ctx | [] -> t.t_root
          in
          run_span t ~parent ~attrs name f)

let annotate fields =
  match !stack with
  | fr :: _ -> fr.f_attrs <- fr.f_attrs @ fields
  | [] -> ()

let set_stamp ?domain label =
  match !stack with
  | fr :: _ ->
      fr.f_stamp <- Some label;
      (match domain with Some _ -> fr.f_domain <- domain | None -> ())
  | [] -> ()
