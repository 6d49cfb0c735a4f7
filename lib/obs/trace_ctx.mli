(** Distributed trace contexts and spans.

    A {!ctx} names one position in one trace: a trace id shared by
    every span of a distributed operation, a span id for this
    position, and the node that holds it.  Contexts cross process
    boundaries as one-line text headers ({!to_header} /
    {!of_header}) carried inside sync messages, so the remote half of
    a synchronization continues the same trace.

    A {!span} is a finished interval.  Besides the usual parent link
    and attributes it can carry the text label of the version stamp
    the work acted on; {!Trace_merge} orders spans from different
    nodes by those stamps (the paper's happens-before oracle) rather
    than by wall clocks.

    The ambient tracer follows the [attach]/[detach] idiom of the sync
    layers' [Obs] modules: when no tracer is attached, {!with_span}
    is a plain function call. *)

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
      (** stamp-comparison scope: merging compares the stamps of two
          spans only when they share a trace and a domain, because
          stamps from unrelated seed lineages are formally comparable
          but causally meaningless *)
  sp_stamp : string option;  (** text label of the stamp carried *)
  sp_attrs : (string * Jsonx.t) list;
}

(** {1 Contexts and propagation} *)

val set_id_seed : int -> unit
(** Make id generation deterministic (tests).  By default ids are
    seeded from the pid and the clock, so concurrently launched
    processes draw distinct ids. *)

val genesis : ?node:string -> unit -> ctx
(** A fresh root context starting a new trace. *)

val child : ctx -> ctx
(** Same trace and node, fresh span id. *)

val to_header : ctx -> string
(** Serialize for a message envelope: ["vstamp-trace/1;TRACE;SPAN;NODE"]. *)

val of_header : string -> (ctx, string) result
(** Parse what {!to_header} produced.  [of_header (to_header c) = Ok c]. *)

(** {1 Span (de)serialization} *)

val span_equal : span -> span -> bool

val span_to_string : span -> string

val span_of_string : string -> (span, string) result

val spans_to_jsonl : span list -> string
(** One span per line; the span-log file format. *)

val spans_of_jsonl : string -> (span list, string) result
(** Inverse of {!spans_to_jsonl} through {!Jsonl.parse}: blank lines
    are skipped, and an error names the failing line. *)

(** {1 The ambient tracer} *)

val attach :
  ?registry:Registry.t ->
  ?sink:(span -> unit) ->
  ?node:string ->
  ?parent:ctx ->
  unit ->
  unit
(** Install the process tracer.  [sink] receives every finished span
    (e.g. a JSONL file writer); [node] names this process in span
    records (default ["local"]); [parent] continues a propagated trace
    — top-level spans become its children — and defaults to a fresh
    {!genesis} root.  With [registry], finished spans tick a
    [trace_spans_total] counter. *)

val detach : unit -> unit

val attached : unit -> bool

val node : unit -> string
(** The attached tracer's node name, or ["local"]. *)

val root : unit -> ctx option
(** The root context of the attached tracer. *)

val current : unit -> ctx option
(** The innermost active span's context (the root context when no span
    is active), or [None] when detached.  This is what gets
    {!to_header}-ed into an outgoing sync message. *)

val with_span :
  ?stamp:string ->
  ?domain:string ->
  ?attrs:(string * Jsonx.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a fresh child span of the
    current context and records it when [f] returns (or raises — the
    span then carries [error: true]).  No-op wrapper when detached. *)

val with_remote_span :
  header:string ->
  ?attrs:(string * Jsonx.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** The receiving half of a propagated context: parse [header] (a
    {!to_header} envelope field) and run [f] in a span that is a child
    of the remote span, continuing the remote trace; a [peer]
    attribute records the sender's node.  Unparseable headers degrade
    to {!with_span} behavior. *)

val annotate : (string * Jsonx.t) list -> unit
(** Append attributes to the innermost active span (no-op outside one). *)

val set_stamp : ?domain:string -> string -> unit
(** Set the stamp label (and optionally the comparison domain) of the
    innermost active span. *)
