(** A named metric registry with three exposition formats.

    Metrics are addressed by name; the name may carry Prometheus-style
    labels inline, e.g. [{sim_op_ns{tracker="stamps",op="join"}}] — the
    registry treats the whole string as the key and the expositions
    understand the label syntax.  [counter]/[gauge]/[histogram] are
    get-or-create and raise [Invalid_argument] if the name is already
    registered with a different kind. *)

type t

val create : unit -> t

val default : t
(** The process-wide registry, used when no explicit registry is
    passed. *)

type metric =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Histogram of Metric.histogram

val counter : t -> string -> Metric.counter

val gauge : t -> string -> Metric.gauge

val histogram : t -> string -> Metric.histogram

val find : t -> string -> metric option

val value : metric -> float
(** A counter's count, a gauge's value, a histogram's number of
    observations. *)

val cardinal : t -> int

val snapshot : t -> (string * metric) list
(** All metrics, sorted by name. *)

val reset : t -> unit
(** Zero every metric, keeping registrations. *)

val clear : t -> unit
(** Drop every registration. *)

(** {1 Exposition} *)

val to_prometheus : t -> string
(** Prometheus text exposition: counters and gauges as single samples,
    histograms as summaries (quantile-labelled samples plus [_sum],
    [_count], [_max]). *)

(** {1 Label helpers}

    Metric names carry their labels inline ([name{k="v",...}]); these
    helpers build such names from raw label values, applying the
    exposition-format escaping (backslash, double quote and line feed
    each get a backslash prefix, the line feed as [\n]) so any byte
    string is a safe label value. *)

val escape_label_value : string -> string

val unescape_label_value : string -> (string, string) result
(** Inverse of {!escape_label_value}; errors on a dangling or unknown
    escape. *)

val label_value : base:string -> label:string -> string -> string option
(** [label_value ~base ~label name] is [Some v] when [name] is
    [base{label="..."}] with [label] its only label, [v] the value
    unescaped; [None] otherwise, or when the value's escapes are
    malformed. *)

val with_labels : string -> (string * string) list -> string
(** [with_labels "kvs_ops_total" ["op", "get"]] is
    [{kvs_ops_total{op="get"}}], label values escaped.  With an empty
    list, the bare name. *)

val to_json : t -> Jsonx.t
(** One object keyed by metric name; histograms expose
    count/sum/mean/min/max/p50/p95/p99. *)

val pp_table : Format.formatter -> t -> unit
(** Human-readable aligned table of the same data. *)

(** {1 Snapshot differencing}

    The live-telemetry plane observes a process through successive
    [/stats.json] snapshots (the {!to_json} form).  {!diff} turns two
    such snapshots plus the wall-clock gap between them into
    per-metric rates — the arithmetic behind [vstamp top]. *)

type kind = Kcounter | Kgauge | Khistogram

type delta = {
  name : string;
  kind : kind;
  value : float;
      (** Current value: a counter's count, a gauge's value, a
          histogram's observation count. *)
  change : float;
      (** [value - previous value]; after a counter reset, just
          [value] (the monotone increase since the restart). *)
  rate : float;
      (** [change /. elapsed_s]; [0.] when [elapsed_s <= 0.] (two
          snapshots taken at the same instant carry no rate
          information). *)
  reset : bool;
      (** A counter (or histogram count) went backwards between the
          snapshots — the process restarted or the registry was
          reset. *)
}

val diff : elapsed_s:float -> prev:Jsonx.t -> Jsonx.t -> delta list
(** [diff ~elapsed_s ~prev cur] pairs the metrics of two {!to_json}
    snapshots by name, sorted by name.  Metrics absent from [prev]
    (e.g. registered between the snapshots) count as previously zero;
    metrics absent from [cur] are dropped.  Non-snapshot JSON shapes
    are ignored field-wise (an [Obj] without a ["count"] field is not
    a histogram and is skipped). *)
