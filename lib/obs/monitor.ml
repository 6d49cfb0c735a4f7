type sampling = Always | Every_n of int | Probability of float

let sampling_to_string = function
  | Always -> "always"
  | Every_n n -> Printf.sprintf "every_n:%d" n
  | Probability p -> Printf.sprintf "probability:%g" p

(* Default uniform draw behind [Probability] when the caller injects no
   RNG: splitmix64 from a fixed seed, so even the fallback is
   deterministic. *)
let default_sample () =
  let state = ref 0x9e3779b97f4a7c15L in
  fun () ->
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let violations_family = "vstamp_invariant_violations_total"

let violations_total registry =
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | Registry.Counter c
        when String.starts_with ~prefix:violations_family name ->
          acc + Metric.count c
      | _ -> acc)
    0
    (Registry.snapshot registry)

type t = {
  name : string;
  sampling : sampling;
  sample : unit -> float;
  checks : Metric.counter;
  violations : Metric.counter;
  coverage : Metric.gauge;
  sink : Sink.t option;
  mutable seen : int;
  mutable last_checked : int option;
  mutable first : (int * (string * Jsonx.t) list) option;
}

let create ?(registry = Registry.default) ?sink ?(sampling = Always) ?sample
    name =
  (match sampling with
  | Every_n n when n <= 0 ->
      invalid_arg "Monitor.create: Every_n needs a positive period"
  | Probability p when not (p >= 0.0 && p <= 1.0) ->
      invalid_arg "Monitor.create: Probability needs p in [0, 1]"
  | _ -> ());
  let family base = Registry.with_labels base [ ("monitor", name) ] in
  {
    name;
    sampling;
    sample = (match sample with Some f -> f | None -> default_sample ());
    checks = Registry.counter registry (family "vstamp_invariant_checks_total");
    violations = Registry.counter registry (family violations_family);
    coverage = Registry.gauge registry (family "vstamp_monitor_coverage");
    sink;
    seen = 0;
    last_checked = None;
    first = None;
  }

let elects t =
  match t.sampling with
  | Always -> true
  | Every_n n -> t.seen mod n = 0
  | Probability p -> t.sample () < p

let check t ?(force = false) ~step witness =
  let chosen = force || elects t in
  t.seen <- t.seen + 1;
  let update_coverage () =
    Metric.set t.coverage
      (float_of_int (Metric.count t.checks) /. float_of_int t.seen)
  in
  if not chosen then begin
    update_coverage ();
    true
  end
  else begin
    let prev_checked = t.last_checked in
    Metric.inc t.checks;
    t.last_checked <- Some step;
    update_coverage ();
    match witness () with
    | [] -> true
    | fields ->
        Metric.inc t.violations;
        if t.first = None then t.first <- Some (step, fields);
        (match t.sink with
        | None -> ()
        | Some sink ->
            (* the sampling decision travels with the witness: a
               violation first seen here arose somewhere in
               (prev_checked_step, step], the window to replay with full
               checking *)
            Sink.emit sink
              (Event.v ~ts:(Event.Step step) "invariant.violation"
                 ([
                    ("monitor", Jsonx.String t.name);
                    ("sampling", Jsonx.String (sampling_to_string t.sampling));
                    ( "prev_checked_step",
                      match prev_checked with
                      | Some s -> Jsonx.Int s
                      | None -> Jsonx.Null );
                    ("steps_seen", Jsonx.Int t.seen);
                    ("steps_checked", Jsonx.Int (Metric.count t.checks));
                  ]
                 @ fields)));
        false
  end

let checks t = Metric.count t.checks

let steps_seen t = t.seen

let coverage t =
  if t.seen = 0 then 1.0
  else float_of_int (Metric.count t.checks) /. float_of_int t.seen

let last_checked_step t = t.last_checked

let violations t = Metric.count t.violations

let first_violation t = t.first
