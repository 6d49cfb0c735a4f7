(** Chrome trace-event JSON (chrome://tracing, Perfetto): the one
    writer of the format, shared by {!Causal_trace.to_chrome} and
    {!Trace_merge.to_chrome}. *)

type slice = {
  name : string;
  cat : string;
  ts : int;  (** start, in the trace's microseconds *)
  dur : int;
  pid : int;  (** process lane *)
  tid : int;  (** thread row within the lane *)
  args : (string * Jsonx.t) list;
}
(** One complete ([ph:"X"]) event. *)

type flow = { id : int; src : slice; dst : slice }
(** A causal arrow from [src] to [dst]: a flow-event pair
    ([ph:"s"] at [src], [ph:"f"] bound to the enclosing slice at
    [dst]), named and categorised ["causal"]. *)

val trace :
  ?generator:string ->
  lanes:(int * string) list ->
  flows:flow list ->
  slice list ->
  Jsonx.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]: the
    [process_name] and [process_sort_index] metadata pair of each
    [(pid, name)] lane, then the slices in the order given, then each
    flow's pair.  [generator] adds [{"otherData": {"generator": g}}]. *)
