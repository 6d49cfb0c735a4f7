(** Incremental runtime invariant monitors.

    A monitor is a named check evaluated repeatedly along a run (e.g.
    the frontier invariants I1–I3 after every simulator step).  Each
    evaluation bumps [vstamp_invariant_checks_total{monitor=...}] in the
    registry; a failing one additionally bumps the matching violations
    counter (the same name with [violations] for [checks]; see
    {!violations_total}), remembers the first witness, and emits a
    structured [invariant.violation] event (step-stamped, deterministic)
    into the sink.

    Full checking is expensive — I2/I3 are quadratic in frontier width —
    so a monitor can carry a {e sampling policy} that evaluates only a
    subset of the offered steps.  Skipped steps still count into
    [steps_seen] and the [vstamp_monitor_coverage{monitor=...}] gauge,
    and every violation event records the sampling decision (the policy,
    the previous checked step, the seen/checked totals) so a violation
    found under sampling pins down the exact window — [(prev_checked,
    step]] — to replay with full checking.

    The monitor is policy-free: it neither raises nor stops the run —
    callers decide whether a violation is fatal (the simulator's
    [?check_invariants] wiring fails loudly with a minimal prefix
    trace). *)

type t

type sampling =
  | Always  (** Check every offered step (the default). *)
  | Every_n of int  (** Check the first offered step, then every nth. *)
  | Probability of float
      (** Check each step independently with this probability, using the
          [sample] draw supplied to {!create}. *)

val sampling_to_string : sampling -> string
(** ["always"], ["every_n:100"], ["probability:0.01"] — the form carried
    by violation events. *)

val create :
  ?registry:Registry.t ->
  ?sink:Sink.t ->
  ?sampling:sampling ->
  ?sample:(unit -> float) ->
  string ->
  t
(** [create name] registers the check/violation counter pair and the
    coverage gauge (labelled [{monitor=name}], the value escaped by
    {!Registry.with_labels}) in [registry] (default
    {!Registry.default}).

    [sampling] defaults to [Always].  [sample] supplies the uniform
    [[0, 1)] draw behind [Probability] — pass the simulation's
    deterministic RNG to keep runs reproducible; the default is a
    built-in fixed-seed splitmix64, also deterministic.

    @raise Invalid_argument on [Every_n n] with [n <= 0] or
    [Probability p] outside [[0, 1]]. *)

val check : t -> ?force:bool -> step:int -> (unit -> (string * Jsonx.t) list) -> bool
(** Offer the check at the given logical step.  If the sampling policy
    elects to skip it (never when [force] is [true], which callers use
    for must-check points like a run's final frontier), the thunk is not
    evaluated and the result is [true].

    Otherwise the thunk returns a {e witness}: an empty field list means
    the invariant holds; a non-empty one describes the violation and
    becomes the fields of the emitted [invariant.violation] event (after
    the [monitor], [sampling], [prev_checked_step], [steps_seen] and
    [steps_checked] fields).  Returns [true] iff the check passed or was
    skipped. *)

val checks : t -> int
(** Evaluations so far (skipped steps excluded). *)

val steps_seen : t -> int
(** Steps offered so far, checked or skipped. *)

val coverage : t -> float
(** [checks / steps_seen]; [1.] before any step is offered. *)

val last_checked_step : t -> int option
(** The most recent step actually evaluated. *)

val violations : t -> int

val first_violation : t -> (int * (string * Jsonx.t) list) option
(** Step and witness of the earliest failure, if any. *)

val violations_total : Registry.t -> int
(** The sum of every monitor's violation counter in the registry: the
    count behind [/healthz] and the [invariant_violation] alert rule. *)
