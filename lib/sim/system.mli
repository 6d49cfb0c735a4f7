(** Run traces over trackers and measure size and accuracy.

    Every run can be paired with the causal-history oracle on the same
    trace (frontiers stay element-aligned by construction), giving an
    exact count of ordering mistakes — zero for version stamps and
    version vectors, non-zero for plausible clocks. *)

type accuracy = {
  comparisons : int;  (** Ordered pairs of distinct frontier elements. *)
  spurious_orderings : int;
      (** Tracker claims an order the oracle denies (invented causality —
          the plausible-clock failure mode). *)
  missed_orderings : int;
      (** Oracle orders a pair the tracker calls concurrent (lost
          causality — would indicate a broken mechanism). *)
}

val perfect : accuracy -> bool

type size_summary = {
  frontier : int;  (** Number of live replicas at the end. *)
  mean_bits : float;  (** Mean tracking-data size per replica. *)
  p50_bits : float;  (** {!Stats.summary} histogram estimates. *)
  p95_bits : float;
  p99_bits : float;
  max_bits : int;
  total_bits : int;
}

type result = {
  tracker : string;
  ops : int;
  updates : int;
  forks : int;
  joins : int;
  final : size_summary;  (** Sizes on the final frontier. *)
  peak_bits : int;  (** Largest single replica size at any step. *)
  mean_step_bits : float;  (** Mean of per-step mean sizes. *)
  accuracy : accuracy option;  (** [None] when run without the oracle. *)
}

exception
  Invariant_violation of {
    tracker : string;
    step : int;  (** 1-based step of the offending op (0: seed frontier). *)
    op : Vstamp_core.Execution.op;
    violations : Vstamp_core.Invariants.violation list;
        (** The I1–I3 witnesses; empty when only the order sanity check
            (reflexivity of the tracker's [leq]) failed. *)
    prefix : Vstamp_core.Execution.op list;
        (** The minimal failing prefix — the shortest prefix of the run
            that already violates (checks run after every step, so it
            ends at the offending op). *)
    saved : string option;  (** File the prefix was saved to, if any. *)
  }
(** Raised by {!run} with [~check_invariants:true] when a step leaves
    the frontier in violation of the mechanism's invariants. *)

val run :
  ?with_oracle:bool ->
  ?registry:Vstamp_obs.Registry.t ->
  ?sink:Vstamp_obs.Sink.t ->
  ?check_invariants:bool ->
  ?sampling:Vstamp_obs.Monitor.sampling ->
  ?sample_seed:int ->
  ?violation_out:string ->
  ?trace:Vstamp_obs.Causal_trace.t ->
  ?profile:Vstamp_obs.Profile.t ->
  Tracker.packed ->
  Vstamp_core.Execution.op list ->
  result
(** Play a trace over one tracker; [with_oracle] (default [true]) also
    plays it over causal histories and scores the final frontier.

    With [registry], per-operation wall-clock latencies are recorded
    into [sim_op_ns{tracker=...,op=...}] histograms and per-replica
    sizes into [sim_size_bits{tracker=...}].  With [sink], a
    machine-readable event stream is emitted: one [sim.start] event,
    one [sim.step] event per operation (frontier width, total and max
    bits) and a final [sim.result] summary.  Event timestamps are the
    {e logical step counter}, never a wall clock, so the stream is
    byte-identical across runs of the same trace.

    With [check_invariants] (default [false]), a {!Vstamp_obs.Monitor}
    evaluates the tracker's frontier invariants (I1–I3 for stamps, via
    [Tracker.S.invariants]) and an order-sanity pass after every step,
    counting into the monitor's check and violation counters in
    [registry] (or the default registry) and emitting an
    [invariant.violation] event into [sink] on failure; the run then
    fails loudly with {!Invariant_violation}
    carrying the minimal failing prefix, saved via {!Trace} to
    [violation_out] when given.

    [sampling] (default [Always]) thins the invariant checks to a
    subset of the steps — [Every_n k] or [Probability p], the latter
    drawn from the deterministic simulation RNG seeded with
    [sample_seed] (default [0]) so sampled runs stay reproducible.  The
    final frontier is always force-checked.  The run publishes
    [vstamp_monitor_coverage{monitor=...}] (checked/offered steps),
    [vstamp_monitor_check_ns{monitor=...}] (cumulative check time) and
    [vstamp_monitor_time_fraction{monitor=...}] (check time over run
    time; slowdown ≈ 1/(1 − fraction)) as gauges in [registry] (or the
    default registry).  A violation event under sampling carries the
    sampling decision — the policy, the previous checked step and the
    seen/checked totals — so the offending window can be replayed with
    full checking.

    With [trace], the run's causal event DAG (one node per replica
    state, parent edges from the fork/update/join structure, logical
    step stamps, stamps as labels) is appended to the given recorder —
    the input to the [vstamp trace] forensics.

    With [profile], every tracker operation, monitor check, trace
    recording and oracle replay is attributed (time and allocation)
    into the given {!Vstamp_obs.Profile} under stacks
    [[tracker; "update"|"fork"|"join"|"monitor"|"record"|"oracle"]]. *)

val run_all :
  ?with_oracle:bool ->
  ?sink:Vstamp_obs.Sink.t ->
  Tracker.packed list ->
  Vstamp_core.Execution.op list ->
  result list

val pp_result : Format.formatter -> result -> unit

val to_row : result -> string list
(** Row for {!Stats.pp_table} under {!header}. *)

val header : string list
