(** Merging per-node span logs into one causally ordered timeline.

    Wall clocks cannot order spans across unsynchronized processes;
    the version-stamp labels the spans carry can.  {!merge}
    topologically sorts spans along strict stamp order (between spans
    sharing a trace and a stamp domain) and parent links, breaking
    ties deterministically by (wall time, node, span id) — so the same
    input always yields the same linearization, and equal input sets
    in any order yield byte-identical {!to_chrome} output.

    The stamp mechanism lives above this library, so the comparison is
    a callback over text labels. *)

type leq = string -> string -> bool option
(** [leq a b] compares two stamp labels: [Some (a <= b)] when both
    parse, [None] otherwise (unparseable labels contribute no
    ordering). *)

type report = {
  rp_spans : int;
  rp_nodes : string list;
  rp_stamped : int;  (** spans carrying a stamp label *)
  rp_ordered_pairs : int;
      (** pairs strictly ordered by stamp [leq] within a scope *)
  rp_cross_node_ordered_pairs : int;
      (** the subset of ordered pairs whose spans live on different
          nodes — the pairs wall clocks could not have ordered *)
  rp_contradictions : (Trace_ctx.span * Trace_ctx.span) list;
      (** [(a, b)] where stamps say [a] happens before [b] but [b]
          finished entirely before [a] began on the wall clock *)
}

val load_file : string -> (Trace_ctx.span list, string) result
(** Load one span-log (JSONL) file through {!Jsonl.load}. *)

val merge : leq:leq -> Trace_ctx.span list -> Trace_ctx.span list
(** Causal linearization of the given spans (typically the
    concatenation of every node's log). *)

val validate : leq:leq -> Trace_ctx.span list -> report
(** Check every stamp-ordered pair against wall-clock order.  A
    contradiction means the causally later span finished entirely
    before the earlier one began; overlapping intervals are expected
    and not flagged. *)

val report_schema : string
(** ["vstamp-causal-report/1"]. *)

(** {1 Memo bound}

    {!merge} and {!validate} memoize the strict-order answer per
    distinct label pair.  The memo is bounded: when it reaches the
    limit it is reset (the [Name_packed] discipline), trading
    recomputation for a hard memory ceiling on week-long merges. *)

val default_memo_limit : int
(** [65536] label pairs. *)

val set_memo_limit : int -> unit
(** Change the bound (process-wide); mainly for tests.
    @raise Invalid_argument when the limit is below 1. *)

val memo_resets : unit -> int
(** Cumulative reset-on-full events since process start. *)

val report_json : report -> Jsonx.t

val to_chrome : Trace_ctx.span list -> Jsonx.t
(** Chrome trace-event (about://tracing, Perfetto) export of an
    already merged span list: one process lane per node, complete
    ("X") events, with each span's causal position recorded as a
    [seq] argument.  Written by {!Chrome.trace}. *)
