(* Declarative alerting over registry snapshots.  The engine is driven
   by the flight-recorder cadence (soak's recorder thread) and read by
   HTTP handler threads, so every entry point takes the lock. *)

type op = Gt | Lt | Ge | Le | Eq | Ne

type cond =
  | Threshold of { metric : string; op : op; value : float }
  | Rate of { metric : string; op : op; value : float }
  | Absent of { metric : string }
  | Invariant_violation

type rule = { name : string; cond : cond; for_s : float }

type state = Inactive | Pending | Firing

type transition = { at_s : float; rule : string; to_firing : bool }

type rt = {
  rule : rule;
  gauge : Metric.gauge;
  mutable state : state;
  mutable since_s : float;  (* when the current state was entered *)
  mutable last_value : float option;  (* last observed value / rate *)
  mutable prev : float option;  (* previous raw value, for rate/absent *)
  mutable prev_t : float;
}

type t = {
  registry : Registry.t;
  sink : Sink.t;
  rts : rt list;
  mutable inv_baseline : float;
  mutable evals : int;
  trans : transition option array;  (* bounded ring, head = next slot *)
  mutable trans_head : int;
  mutable started : bool;
  lock : Mutex.t;
}

let op_to_string = function
  | Gt -> ">"
  | Lt -> "<"
  | Ge -> ">="
  | Le -> "<="
  | Eq -> "=="
  | Ne -> "!="

let op_of_string = function
  | ">" -> Some Gt
  | "<" -> Some Lt
  | ">=" -> Some Ge
  | "<=" -> Some Le
  | "==" | "=" -> Some Eq
  | "!=" -> Some Ne
  | _ -> None

let apply op a b =
  match op with
  | Gt -> a > b
  | Lt -> a < b
  | Ge -> a >= b
  | Le -> a <= b
  | Eq -> a = b
  | Ne -> a <> b

let state_to_string = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Firing -> "firing"

(* {1 Parsing} *)

let duration_of_string s =
  let num, scale =
    if String.ends_with ~suffix:"ms" s then
      (String.sub s 0 (String.length s - 2), 0.001)
    else if String.length s > 1 then
      match s.[String.length s - 1] with
      | 's' -> (String.sub s 0 (String.length s - 1), 1.)
      | 'm' -> (String.sub s 0 (String.length s - 1), 60.)
      | 'h' -> (String.sub s 0 (String.length s - 1), 3600.)
      | _ -> (s, 1.)
    else (s, 1.)
  in
  match float_of_string_opt num with
  | Some f when f >= 0. -> Ok (f *. scale)
  | _ -> Error (Printf.sprintf "bad duration %S (want e.g. 500ms, 5s, 2m, 1h)" s)

let pp_duration for_s =
  if Float.is_integer for_s then Printf.sprintf "%.0fs" for_s
  else Printf.sprintf "%gs" for_s

let fn_arg ~fn token =
  (* ["rate(metric)"] -> [Some "metric"] *)
  let prefix = fn ^ "(" in
  let lp = String.length prefix in
  if
    String.length token > lp + 1
    && String.starts_with ~prefix token
    && String.ends_with ~suffix:")" token
  then Some (String.sub token lp (String.length token - lp - 1))
  else None

let parse_rule line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let tokens =
    String.split_on_char '\t' line
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Ok None
  | name :: rest -> (
      let rest, for_s =
        match List.rev rest with
        | d :: "for" :: before -> (List.rev before, Some d)
        | _ -> (rest, None)
      in
      let for_s =
        match for_s with
        | None -> Ok 0.
        | Some d -> duration_of_string d
      in
      match for_s with
      | Error e -> Error e
      | Ok for_s -> (
          let cond =
            match rest with
            | [ "invariant_violation" ] -> Ok Invariant_violation
            | [ single ] -> (
                match fn_arg ~fn:"absent" single with
                | Some metric -> Ok (Absent { metric })
                | None ->
                    Error
                      (Printf.sprintf
                         "bad condition %S (want METRIC OP VALUE, \
                          rate(METRIC) OP VALUE, absent(METRIC) or \
                          invariant_violation)"
                         single))
            | [ subject; op_s; value_s ] -> (
                match (op_of_string op_s, float_of_string_opt value_s) with
                | None, _ -> Error (Printf.sprintf "bad operator %S" op_s)
                | _, None -> Error (Printf.sprintf "bad value %S" value_s)
                | Some op, Some value -> (
                    match fn_arg ~fn:"rate" subject with
                    | Some metric -> Ok (Rate { metric; op; value })
                    | None -> Ok (Threshold { metric = subject; op; value })))
            | [] -> Error "rule has a name but no condition"
            | _ -> Error "too many tokens in condition"
          in
          match cond with
          | Error e -> Error e
          | Ok cond -> Ok (Some { name; cond; for_s })))

let parse_rules text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc seen = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_rule line with
        | Error e -> Error (Printf.sprintf "line %d: %s" i e)
        | Ok None -> go (i + 1) acc seen rest
        | Ok (Some r) ->
            if List.mem r.name seen then
              Error (Printf.sprintf "line %d: duplicate rule name %S" i r.name)
            else go (i + 1) (r :: acc) (r.name :: seen) rest)
  in
  go 1 [] [] lines

let rule_to_string r =
  let cond =
    match r.cond with
    | Threshold { metric; op; value } ->
        Printf.sprintf "%s %s %g" metric (op_to_string op) value
    | Rate { metric; op; value } ->
        Printf.sprintf "rate(%s) %s %g" metric (op_to_string op) value
    | Absent { metric } -> Printf.sprintf "absent(%s)" metric
    | Invariant_violation -> "invariant_violation"
  in
  if r.for_s > 0. then
    Printf.sprintf "%s %s for %s" r.name cond (pp_duration r.for_s)
  else Printf.sprintf "%s %s" r.name cond

(* {1 Engine} *)

let metric_value registry name =
  Option.map Registry.value (Registry.find registry name)

let create ?(registry = Registry.default) ?(sink = Sink.null) rules =
  let rts =
    List.map
      (fun rule ->
        let gauge =
          Registry.gauge registry
            (Registry.with_labels "vstamp_alerts_firing" [ ("rule", rule.name) ])
        in
        Metric.set gauge 0.;
        {
          rule;
          gauge;
          state = Inactive;
          since_s = 0.;
          last_value = None;
          prev = None;
          prev_t = 0.;
        })
      rules
  in
  {
    registry;
    sink;
    rts;
    inv_baseline = float_of_int (Monitor.violations_total registry);
    evals = 0;
    trans = Array.make 256 None;
    trans_head = 0;
    started = false;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push_transition t tr =
  t.trans.(t.trans_head) <- Some tr;
  t.trans_head <- (t.trans_head + 1) mod Array.length t.trans

let emit_transition t rt ~now_s ~to_firing =
  push_transition t { at_s = now_s; rule = rt.rule.name; to_firing };
  let fields =
    [
      ("rule", Jsonx.String rt.rule.name);
      ("spec", Jsonx.String (rule_to_string rt.rule));
      ( "value",
        match rt.last_value with Some v -> Jsonx.Float v | None -> Jsonx.Null );
    ]
  in
  let ts = Event.Wall_ns (Int64.of_float (now_s *. 1e9)) in
  Sink.emit t.sink
    (Event.v ~ts (if to_firing then "alert.firing" else "alert.resolved") fields)

(* Evaluate one rule's raw condition, updating its rate/absence memory.
   Returns [(condition_holds, observed_value)]. *)
let eval_cond t rt ~now_s =
  match rt.rule.cond with
  | Threshold { metric; op; value } -> (
      match metric_value t.registry metric with
      | None -> (false, None)
      | Some v -> (apply op v value, Some v))
  | Rate { metric; op; value } -> (
      match metric_value t.registry metric with
      | None -> (false, None)
      | Some v ->
          let result =
            match rt.prev with
            | Some p when now_s > rt.prev_t ->
                let increase, _ = Metric.increase ~prev:p v in
                let rate = increase /. (now_s -. rt.prev_t) in
                (apply op rate value, Some rate)
            | _ -> (false, None)
          in
          rt.prev <- Some v;
          rt.prev_t <- now_s;
          result)
  | Absent { metric } -> (
      match metric_value t.registry metric with
      | None -> (true, None)
      | Some v ->
          let stale = match rt.prev with Some p -> v <= p | None -> false in
          rt.prev <- Some v;
          rt.prev_t <- now_s;
          (stale, Some v))
  | Invariant_violation ->
      let v = float_of_int (Monitor.violations_total t.registry) in
      (v > t.inv_baseline, Some (v -. t.inv_baseline))

let eval ?now_s t =
  let now_s = match now_s with Some s -> s | None -> Clock.now_s () in
  with_lock t (fun () ->
      t.evals <- t.evals + 1;
      if not t.started then begin
        t.started <- true;
        List.iter (fun rt -> rt.since_s <- now_s) t.rts
      end;
      List.iter
        (fun rt ->
          let holds, value = eval_cond t rt ~now_s in
          if value <> None then rt.last_value <- value;
          match (rt.state, holds) with
          | Inactive, true ->
              if rt.rule.for_s <= 0. then begin
                rt.state <- Firing;
                rt.since_s <- now_s;
                Metric.set rt.gauge 1.;
                emit_transition t rt ~now_s ~to_firing:true
              end
              else begin
                rt.state <- Pending;
                rt.since_s <- now_s
              end
          | Pending, true ->
              if now_s -. rt.since_s >= rt.rule.for_s then begin
                rt.state <- Firing;
                rt.since_s <- now_s;
                Metric.set rt.gauge 1.;
                emit_transition t rt ~now_s ~to_firing:true
              end
          | Pending, false ->
              rt.state <- Inactive;
              rt.since_s <- now_s
          | Firing, false ->
              rt.state <- Inactive;
              rt.since_s <- now_s;
              Metric.set rt.gauge 0.;
              emit_transition t rt ~now_s ~to_firing:false
          | Inactive, false | Firing, true -> ())
        t.rts)

let states t = with_lock t (fun () -> List.map (fun rt -> (rt.rule, rt.state)) t.rts)

let firing t =
  with_lock t (fun () ->
      List.filter_map
        (fun rt -> if rt.state = Firing then Some rt.rule else None)
        t.rts)

let any_firing t = firing t <> []

let transitions t =
  with_lock t (fun () ->
      let n = Array.length t.trans in
      let out = ref [] in
      for i = 0 to n - 1 do
        match t.trans.((t.trans_head + i) mod n) with
        | Some tr -> out := tr :: !out
        | None -> ()
      done;
      List.rev !out)

let evals t = with_lock t (fun () -> t.evals)

let to_json t =
  let trs = transitions t in
  with_lock t (fun () ->
      let rules_json =
        List.map
          (fun rt ->
            Jsonx.Obj
              [
                ("name", Jsonx.String rt.rule.name);
                ("rule", Jsonx.String (rule_to_string rt.rule));
                ("state", Jsonx.String (state_to_string rt.state));
                ("for_s", Jsonx.Float rt.rule.for_s);
                ("since_s", Jsonx.Float rt.since_s);
                ( "value",
                  match rt.last_value with
                  | Some v -> Jsonx.Float v
                  | None -> Jsonx.Null );
              ])
          t.rts
      in
      let firing_n =
        List.length (List.filter (fun rt -> rt.state = Firing) t.rts)
      in
      Jsonx.Obj
        [
          ("rules", Jsonx.List rules_json);
          ("firing", Jsonx.Int firing_n);
          ("evals", Jsonx.Int t.evals);
          ( "transitions",
            Jsonx.List
              (List.map
                 (fun tr ->
                   Jsonx.Obj
                     [
                       ("t_s", Jsonx.Float tr.at_s);
                       ("rule", Jsonx.String tr.rule);
                       ( "to",
                         Jsonx.String
                           (if tr.to_firing then "firing" else "resolved") );
                     ])
                 trs) );
        ])
