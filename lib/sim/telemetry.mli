(** Bridge between the core's {!Vstamp_core.Instr} hook and the
    {!Vstamp_obs} registry.

    [attach ~registry ()] enables core instrumentation and installs an
    observer that mirrors every stamp operation into the registry:

    - [core_stamp_ops_total{op=...}] — counters per operation kind
    - [core_stamp_bits{op=...}] — histogram of result sizes (bits)
    - [core_stamp_depth] / [core_stamp_id_width] — histograms of the
      result's name depth and id width after each operation

    [sync_counters registry] copies the cumulative {!Vstamp_core.Instr}
    counters (op counts, reduction rewrites and bits saved, wire codec
    bytes) into gauges of the registry, so one snapshot shows
    everything.  All of these values are deterministic for a
    deterministic run. *)

val attach : ?registry:Vstamp_obs.Registry.t -> unit -> unit
(** Enable {!Vstamp_core.Instr} and install the registry observer. *)

val detach : unit -> unit
(** Disable instrumentation and remove the observer. *)

val counter_fields : unit -> (string * int) list
(** The current {!Vstamp_core.Instr} counters as labelled values, in a
    fixed order. *)

val sync_counters : Vstamp_obs.Registry.t -> unit
(** Publish the current {!Vstamp_core.Instr} counters as
    [core_*] / [wire_*] gauges. *)

val counters_event : ?step:int -> unit -> Vstamp_obs.Event.t
(** The current {!Vstamp_core.Instr} counters as a [core.counters]
    event (deterministic; suitable for a JSONL stream). *)

(** {1 Invariant witnesses} *)

val violation_witness :
  violations:Vstamp_core.Invariants.violation list ->
  order_failures:int list ->
  (string * Vstamp_obs.Jsonx.t) list
(** Witness fields for {!Vstamp_obs.Monitor.check}: the I1–I3
    violations, each as [{"invariant": "I2", "at": [i, j]}], plus
    frontier positions whose tracker order failed the reflexivity
    sanity check.  Empty iff both lists are empty. *)
