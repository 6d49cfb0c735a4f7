(* The alerting plane: rules-file grammar, the threshold / rate /
   absence / invariant conditions, for-duration debounce, the
   firing -> resolved lifecycle with its gauge and events. *)

open Vstamp_obs

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let checkf msg = Alcotest.(check (float 1e-9)) msg

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i =
    i + m <= n && (String.sub haystack i m = needle || go (i + 1))
  in
  m = 0 || go 0

let parse_one line =
  match Alert.parse_rule line with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "line %S parsed to nothing" line
  | Error m -> Alcotest.failf "line %S: %s" line m

let state_of t name =
  match
    List.find_opt (fun (r, _) -> r.Alert.name = name) (Alert.states t)
  with
  | Some (_, s) -> s
  | None -> Alcotest.failf "no rule %S" name

let gauge_of registry name =
  match
    Registry.find registry
      (Registry.with_labels "vstamp_alerts_firing" [ ("rule", name) ])
  with
  | Some (Registry.Gauge g) -> Metric.value g
  | _ -> Alcotest.failf "no firing gauge for %S" name

(* --- grammar --- *)

let test_durations () =
  let ok s = match Alert.duration_of_string s with Ok f -> f | Error m -> Alcotest.failf "%s" m in
  checkf "ms" 0.5 (ok "500ms");
  checkf "s" 5. (ok "5s");
  checkf "m" 120. (ok "2m");
  checkf "h" 5400. (ok "1.5h");
  checkf "bare seconds" 3. (ok "3");
  check_bool "garbage rejected" true
    (match Alert.duration_of_string "soon" with Error _ -> true | Ok _ -> false);
  check_bool "negative rejected" true
    (match Alert.duration_of_string "-5s" with Error _ -> true | Ok _ -> false)

let test_parse_rule_forms () =
  (match Alert.parse_rule "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (match Alert.parse_rule "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank not skipped");
  let r = parse_one "hot soak_ops_total > 100 for 5s" in
  check_string "name" "hot" r.Alert.name;
  checkf "for" 5. r.Alert.for_s;
  (match r.Alert.cond with
  | Alert.Threshold { metric; op = Alert.Gt; value } ->
      check_string "metric" "soak_ops_total" metric;
      checkf "value" 100. value
  | _ -> Alcotest.fail "not a threshold");
  (match (parse_one "fast rate(ops) >= 2.5").Alert.cond with
  | Alert.Rate { metric = "ops"; op = Alert.Ge; value } -> checkf "rate value" 2.5 value
  | _ -> Alcotest.fail "not a rate");
  (match (parse_one "gone absent(heartbeat_total)").Alert.cond with
  | Alert.Absent { metric = "heartbeat_total" } -> ()
  | _ -> Alcotest.fail "not an absence");
  (match (parse_one "broken invariant_violation for 1m").Alert.cond with
  | Alert.Invariant_violation -> ()
  | _ -> Alcotest.fail "not an invariant rule");
  check_bool "bad op rejected" true
    (match Alert.parse_rule "x m >!> 1" with Error _ -> true | Ok _ -> false);
  check_bool "missing value rejected" true
    (match Alert.parse_rule "x m >" with Error _ -> true | Ok _ -> false)

let test_round_trip () =
  List.iter
    (fun line ->
      let r = parse_one line in
      let r' = parse_one (Alert.rule_to_string r) in
      check_bool (line ^ " round-trips") true (r = r'))
    [
      "hot ops > 100 for 5s";
      "cold ops <= 0.5";
      "fast rate(ops) != 3";
      "gone absent(hb)";
      "broken invariant_violation for 500ms";
    ]

let test_parse_rules_file () =
  let text = "# rules\nhot ops > 1\n\nfast rate(ops) < 9 for 2s\n" in
  (match Alert.parse_rules text with
  | Ok rs -> check_int "two rules" 2 (List.length rs)
  | Error m -> Alcotest.failf "parse_rules: %s" m);
  (match Alert.parse_rules "ok ops > 1\nbroken ops >!> 2\n" with
  | Error m ->
      check_bool "error names the line" true (contains m "line 2")
  | Ok _ -> Alcotest.fail "bad line accepted");
  match Alert.parse_rules "dup ops > 1\ndup ops > 2\n" with
  | Error m ->
      check_bool "duplicate rejected" true (contains m "dup")
  | Ok _ -> Alcotest.fail "duplicate names accepted"

(* --- lifecycle --- *)

let test_threshold_fire_resolve () =
  let registry = Registry.create () in
  let sink = Sink.memory () in
  let g = Registry.gauge registry "depth" in
  let t = Alert.create ~registry ~sink [ parse_one "deep depth >= 5" ] in
  checkf "gauge registered at 0" 0. (gauge_of registry "deep");
  Alert.eval ~now_s:1. t;
  check_bool "below threshold: inactive" true (state_of t "deep" = Alert.Inactive);
  Metric.set g 7.;
  Alert.eval ~now_s:2. t;
  check_bool "fires immediately (no for)" true (state_of t "deep" = Alert.Firing);
  checkf "gauge flipped" 1. (gauge_of registry "deep");
  check_bool "any_firing" true (Alert.any_firing t);
  check_int "one firing rule" 1 (List.length (Alert.firing t));
  Metric.set g 2.;
  Alert.eval ~now_s:3. t;
  check_bool "resolved" true (state_of t "deep" = Alert.Inactive);
  checkf "gauge back to 0" 0. (gauge_of registry "deep");
  check_bool "nothing firing" false (Alert.any_firing t);
  (* transition ring: firing then resolved, oldest first *)
  (match Alert.transitions t with
  | [ a; b ] ->
      check_bool "first to firing" true a.Alert.to_firing;
      check_bool "then resolved" false b.Alert.to_firing;
      checkf "fired at t=2" 2. a.Alert.at_s
  | trs -> Alcotest.failf "expected 2 transitions, got %d" (List.length trs));
  (* events landed in the sink with the rule name attached *)
  let names =
    List.map (fun e -> e.Event.name) (Sink.contents sink)
  in
  Alcotest.(check (list string))
    "events emitted" [ "alert.firing"; "alert.resolved" ] names;
  check_int "evals counted" 3 (Alert.evals t)

let test_for_duration_debounce () =
  let registry = Registry.create () in
  let g = Registry.gauge registry "depth" in
  let t = Alert.create ~registry [ parse_one "deep depth >= 5 for 10s" ] in
  Metric.set g 9.;
  Alert.eval ~now_s:0. t;
  check_bool "pending, not firing" true (state_of t "deep" = Alert.Pending);
  Alert.eval ~now_s:5. t;
  check_bool "still pending within window" true
    (state_of t "deep" = Alert.Pending);
  checkf "gauge stays 0 while pending" 0. (gauge_of registry "deep");
  Alert.eval ~now_s:10. t;
  check_bool "fires once held for the window" true
    (state_of t "deep" = Alert.Firing);
  (* a dip while pending resets the debounce *)
  Metric.set g 1.;
  Alert.eval ~now_s:11. t;
  Metric.set g 9.;
  Alert.eval ~now_s:12. t;
  check_bool "back to pending after the dip" true
    (state_of t "deep" = Alert.Pending)

let test_rate_rule () =
  let registry = Registry.create () in
  let c = Registry.counter registry "ops_total" in
  let t = Alert.create ~registry [ parse_one "fast rate(ops_total) >= 2" ] in
  Alert.eval ~now_s:0. t;
  check_bool "no rate on first eval" true (state_of t "fast" = Alert.Inactive);
  Metric.add c 10;
  Alert.eval ~now_s:5. t;
  (* 10 ops in 5 s = 2/s *)
  check_bool "fires at the threshold rate" true
    (state_of t "fast" = Alert.Firing);
  Alert.eval ~now_s:10. t;
  check_bool "resolves when the counter stalls" true
    (state_of t "fast" = Alert.Inactive);
  (* a restart: the counter falls back to 0, then counts 6 ops in 3 s,
     and the whole new value is the increase *)
  Metric.reset_counter c;
  Metric.add c 6;
  Alert.eval ~now_s:13. t;
  let rate =
    match Jsonx.member "rules" (Alert.to_json t) with
    | Some (Jsonx.List [ r ]) ->
        Option.bind (Jsonx.member "value" r) Jsonx.to_float
    | _ -> None
  in
  check_bool "rate across a counter reset" true (rate = Some 2.);
  check_bool "fires across a counter reset" true
    (state_of t "fast" = Alert.Firing)

let test_absent_rule () =
  let registry = Registry.create () in
  let t = Alert.create ~registry [ parse_one "gone absent(hb_total)" ] in
  Alert.eval ~now_s:0. t;
  check_bool "missing metric fires" true (state_of t "gone" = Alert.Firing);
  let c = Registry.counter registry "hb_total" in
  Metric.inc c;
  Alert.eval ~now_s:1. t;
  check_bool "appearing metric resolves" true
    (state_of t "gone" = Alert.Inactive);
  Alert.eval ~now_s:2. t;
  check_bool "a stalled counter is absent again" true
    (state_of t "gone" = Alert.Firing);
  Metric.inc c;
  Alert.eval ~now_s:3. t;
  check_bool "an advancing counter resolves" true
    (state_of t "gone" = Alert.Inactive)

let test_invariant_rule () =
  let registry = Registry.create () in
  let v =
    Registry.counter registry
      "vstamp_invariant_violations_total{monitor=\"stamps\"}"
  in
  (* violations that predate the engine are baseline, not alerts *)
  Metric.add v 3;
  let t = Alert.create ~registry [ parse_one "broken invariant_violation" ] in
  Alert.eval ~now_s:0. t;
  check_bool "baseline does not fire" true
    (state_of t "broken" = Alert.Inactive);
  Metric.inc v;
  Alert.eval ~now_s:1. t;
  check_bool "new violation fires" true (state_of t "broken" = Alert.Firing)

let test_to_json_shape () =
  let registry = Registry.create () in
  let g = Registry.gauge registry "depth" in
  Metric.set g 9.;
  let t = Alert.create ~registry [ parse_one "deep depth >= 5" ] in
  Alert.eval ~now_s:1. t;
  let j = Alert.to_json t in
  let rules =
    match Jsonx.member "rules" j with
    | Some (Jsonx.List rs) -> rs
    | _ -> Alcotest.fail "no rules list"
  in
  check_int "one rule" 1 (List.length rules);
  let r = List.hd rules in
  check_bool "rule state serialised" true
    (Option.bind (Jsonx.member "state" r) Jsonx.to_str = Some "firing");
  check_bool "firing count" true
    (Option.bind (Jsonx.member "firing" j) Jsonx.to_int = Some 1);
  match Jsonx.member "transitions" j with
  | Some (Jsonx.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no transitions in payload"

let () =
  Alcotest.run "alert"
    [
      ( "grammar",
        [
          Alcotest.test_case "durations" `Quick test_durations;
          Alcotest.test_case "rule forms" `Quick test_parse_rule_forms;
          Alcotest.test_case "rule_to_string round trip" `Quick test_round_trip;
          Alcotest.test_case "rules file" `Quick test_parse_rules_file;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "threshold fire/resolve" `Quick
            test_threshold_fire_resolve;
          Alcotest.test_case "for-duration debounce" `Quick
            test_for_duration_debounce;
          Alcotest.test_case "rate rule" `Quick test_rate_rule;
          Alcotest.test_case "absence rule" `Quick test_absent_rule;
          Alcotest.test_case "invariant rule baselines" `Quick
            test_invariant_rule;
          Alcotest.test_case "/alerts.json payload" `Quick test_to_json_shape;
        ] );
    ]
