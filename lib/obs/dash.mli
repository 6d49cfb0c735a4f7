(** Terminal dashboard rendering for [vstamp top].

    Pure: a frame is computed from data already fetched — a
    {!Registry.diff} between two successive [/stats.json] snapshots,
    the current snapshot, the [/healthz] object and the recent event
    lines — and returned as a string (ANSI escapes only, no curses).
    The polling loop around it lives in the CLI. *)

val clear_screen : string
(** Cursor home + erase display — print before a frame to repaint in
    place. *)

val sparkline : ?width:int -> float list -> string
(** An eight-level unicode sparkline ([▁▂▃▄▅▆▇█]) of the values,
    oldest first, scaled to the series' own min/max (a flat series
    renders mid-height).  [width] keeps only the newest that many
    values; non-finite values are dropped; [""] when nothing
    remains. *)

val render :
  ?color:bool ->
  ?width:int ->
  ?events:string list ->
  ?health:Jsonx.t ->
  ?alerts:Jsonx.t ->
  ?sparks:(string * float list) list ->
  deltas:Registry.delta list ->
  snapshot:Jsonx.t ->
  unit ->
  string
(** One frame: a health header, an alerts panel (from an
    [/alerts.json] object — firing rules red, pending yellow), the
    busiest counters with their per-second rates (a [reset] delta is
    flagged), the current gauges, a divergence panel (the
    {!Convergence} gauge families and the [*_delta_efficiency]
    sync-accounting gauges, shown only when the snapshot carries
    them), an identity-space panel (the [vstamp_idspace_*] and
    [sim_churn_*] fragmentation/reclamation gauges a churn run
    publishes, shown only when the snapshot carries them), a
    flight-recorder history panel ([sparks]: one {!sparkline}
    row per named series, fed from [/range.json] bucket averages),
    histogram summaries from [snapshot], and the tail of [events]
    (newest last).  [color] (default [true]) toggles the ANSI styling;
    each table shows at most 12 rows; [width] (default 100) truncates
    long lines. *)

val render_cluster : ?color:bool -> Jsonx.t -> string
(** One frame of the multi-node panel, from a [/cluster.json] roll-up
    ({!Cluster.collect}): a summary header (nodes up / total, firing
    alerts, the cluster trace id when present) and one row per node —
    green/red up marker, id, port, status, uptime, iteration / event /
    request totals and its own firing-alert count.  Down nodes show
    the scrape error instead. *)
