(** Benchmark run ledger and regression comparison.

    A {e run} is one parsed [BENCH_core.json] document (schema
    [vstamp-bench-core/1..3]).  This module turns two runs into a flat
    list of named, direction-annotated metrics (operation latencies,
    tracking-data sizes, reduction efficacy, monitor overheads),
    computes relative deltas, and classifies regressions against a
    tolerance — the engine behind [vstamp bench diff] and
    [vstamp bench check].

    Runs made under different configurations (different seed, bechamel
    iteration budget, workload scale lists — the [config] block of
    schema /3) are not comparable point for point, so {!compare_runs}
    refuses them unless explicitly overridden; runs that predate the
    [config] block (schema /1, /2) compare with compatibility
    [`Unknown].

    The ledger side ({!append} / {!history}) is an append-only JSONL
    file — one run per line, newest last — so the bench trajectory
    accumulates across commits instead of being overwritten. *)

type run

val of_json : Jsonx.t -> (run, string) result
(** Accepts any object carrying a [schema] string field of the
    [vstamp-bench-core/N] family. *)

val load : file:string -> (run, string) result

val schema : run -> string

val git_rev : run -> string option

(** {1 Ledger} *)

val append : file:string -> Jsonx.t -> unit
(** Append one run as a single JSONL line, creating the file if
    needed. *)

val history : file:string -> (Jsonx.t list, string) result
(** All ledger entries, oldest first, read by {!Jsonl.load}: blank
    lines are tolerated, and a malformed line is an error
    ["FILE:N: msg"] naming its line number. *)

(** {1 Comparison} *)

type direction =
  | Lower_better  (** Latencies, sizes, slowdowns. *)
  | Higher_better  (** Reduction ratios, throughputs. *)

type delta = {
  metric : string;
  baseline : float;
  current : float;
  worse_pct : float;
      (** Relative change towards {e worse}, in percent: positive means
          the current run regressed, negative means it improved.
          [infinity] when a zero baseline became non-zero (in the bad
          direction). *)
  direction : direction;
}

val metrics : run -> (string * float * direction) list
(** Every comparable scalar of the run, as [metric-path, value,
    direction], sorted by path.  Latency entries recorded as timed out
    (schema /3 [{"timed_out": true}]) are omitted.  From the schema /5
    [convergence] block only the deterministic fields are extracted
    (steps, bytes, efficiency) — never the wall-clock
    [convergence_ns]. *)

val config_compatibility :
  baseline:run -> current:run -> [ `Same | `Unknown | `Mismatch of string ]

val compare_runs :
  ?ignore_config:bool -> baseline:run -> run -> (delta list, string) result
(** [compare_runs ~baseline current]: deltas over the metrics present
    in both runs, sorted by metric path.  Errors on a config mismatch
    unless [ignore_config] (default [false]); [`Unknown] compatibility
    is allowed. *)

val regressions : tolerance:float -> delta list -> delta list
(** Deltas with [worse_pct > tolerance] (tolerance in percent). *)

val improvements : tolerance:float -> delta list -> delta list
(** Deltas with [worse_pct < -. tolerance]. *)

val pp_delta_table : ?limit:int -> Format.formatter -> delta list -> unit
(** Aligned table, worst first, capped at [limit] rows (default 20),
    with a summary line counting what was elided. *)
