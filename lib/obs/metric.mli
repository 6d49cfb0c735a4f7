(** Metric primitives: counters, gauges, and log-scaled histograms.

    All three are plain mutable records with O(1) operations, safe to
    keep on hot paths.  The histogram buckets observations at 8 buckets
    per octave (relative resolution about 9%), which makes quantile
    queries O(buckets) and memory constant regardless of how many
    values are observed.  [count], [sum], [min] and [max] are exact;
    quantiles are approximate within one bucket. *)

(** {1 Counters} *)

type counter

val counter : unit -> counter

val inc : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotone). *)

val count : counter -> int

val reset_counter : counter -> unit

val increase : prev:float -> float -> float * bool
(** [increase ~prev v]: how much a monotone value (a counter, a
    histogram's count) grew from [prev] to [v], and whether it went
    backwards.  Going backwards means the process or registry
    restarted, so the whole of [v] is the increase (the Prometheus
    [rate()] rule). *)

(** {1 Gauges} *)

type gauge

val gauge : unit -> gauge

val set : gauge -> float -> unit

val add_gauge : gauge -> float -> unit

val value : gauge -> float

val reset_gauge : gauge -> unit

(** {1 Histograms} *)

type histogram

val histogram : unit -> histogram

val observe : histogram -> float -> unit
(** Record one observation.  Negative values are clamped to the lowest
    bucket (they still contribute to count and sum). *)

val observe_int : histogram -> int -> unit

val observations : histogram -> int

val sum : histogram -> float

val mean : histogram -> float
(** [0.] when empty. *)

val min_value : histogram -> float
(** Exact smallest observation; [0.] when empty. *)

val max_value : histogram -> float
(** Exact largest observation; [0.] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [(0, 1]]: the bucket-resolution estimate
    of the [q]-quantile, clamped into [[min, max]]; [0.] when empty. *)

type percentiles = { p50 : float; p95 : float; p99 : float; max : float }

val percentiles : histogram -> percentiles

val reset_histogram : histogram -> unit
