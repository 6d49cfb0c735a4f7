(** Declarative alerting over a {!Registry}: threshold, rate-over-
    window, counter-absence and invariant-violation rules with
    for-duration debounce and a firing → resolved lifecycle.

    {1 Rules file grammar}

    One rule per line; blank lines and [#] comments ignored:

    {v
    NAME  CONDITION  [for DURATION]

    CONDITION :=
      METRIC OP VALUE           threshold on the current value
      rate(METRIC) OP VALUE     per-second rate between evaluations
      absent(METRIC)            metric missing, or not increasing
      invariant_violation       any Monitor violation counter
                                increased since the engine started

    OP       := > | < | >= | <= | == | !=
    DURATION := <float><ms|s|m|h>     e.g. 500ms, 5s, 2m, 1h
    v}

    A rule's condition must hold continuously for [DURATION] (default
    [0s]: immediately) before the rule {e fires}; when the condition
    stops holding a firing rule {e resolves}.  Transitions emit
    [alert.firing] / [alert.resolved] events to the engine's sink and
    drive a [vstamp_alerts_firing{rule="NAME"}] gauge (1 firing, 0
    otherwise) in the engine's registry. *)

type op = Gt | Lt | Ge | Le | Eq | Ne

type cond =
  | Threshold of { metric : string; op : op; value : float }
  | Rate of { metric : string; op : op; value : float }
  | Absent of { metric : string }
  | Invariant_violation

type rule = { name : string; cond : cond; for_s : float }

type state = Inactive | Pending | Firing

type transition = { at_s : float; rule : string; to_firing : bool }

type t

(** {1 Parsing} *)

val duration_of_string : string -> (float, string) result
(** ["500ms"], ["5s"], ["2m"], ["1.5h"] → seconds. *)

val parse_rule : string -> (rule option, string) result
(** One line; [Ok None] for blanks and comments. *)

val parse_rules : string -> (rule list, string) result
(** A whole rules file; the error carries the 1-based line number.
    Duplicate rule names are rejected. *)

val rule_to_string : rule -> string
(** Round-trips through {!parse_rule}. *)

(** {1 Engine} *)

val create : ?registry:Registry.t -> ?sink:Sink.t -> rule list -> t
(** The engine reads metric values from [registry] (default
    {!Registry.default}) and publishes the firing gauges back into it;
    transition events go to [sink] (default {!Sink.null}).  Each
    rule's gauge is registered (at 0) immediately. *)

val eval : ?now_s:float -> t -> unit
(** One evaluation round.  [now_s] defaults to {!Clock.now_s}; tests
    drive the debounce with an explicit clock. *)

val states : t -> (rule * state) list

val firing : t -> rule list

val any_firing : t -> bool

val transitions : t -> transition list
(** Most recent transitions, oldest first (bounded ring of 256). *)

val evals : t -> int

val to_json : t -> Jsonx.t
(** The [/alerts.json] payload: per-rule state (with the last observed
    value and how long the rule has been in its state) and the
    transition timeline. *)
