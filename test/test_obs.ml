open Vstamp_obs

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let check_float = Alcotest.(check (float 1e-9))

(* --- Metric: counters --- *)

let test_counter () =
  let c = Metric.counter () in
  check_int "fresh counter" 0 (Metric.count c);
  Metric.inc c;
  Metric.inc c;
  Metric.add c 5;
  check_int "inc and add" 7 (Metric.count c);
  Metric.add c 0;
  check_int "add zero" 7 (Metric.count c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metric.add: counters are monotone") (fun () ->
      Metric.add c (-1));
  Metric.reset_counter c;
  check_int "reset" 0 (Metric.count c)

(* --- Metric: gauges --- *)

let test_gauge () =
  let g = Metric.gauge () in
  check_float "fresh gauge" 0.0 (Metric.value g);
  Metric.set g 3.5;
  check_float "set" 3.5 (Metric.value g);
  Metric.add_gauge g (-1.25);
  check_float "add negative ok" 2.25 (Metric.value g);
  Metric.reset_gauge g;
  check_float "reset" 0.0 (Metric.value g)

(* --- Metric: histograms --- *)

let test_histogram_basics () =
  let h = Metric.histogram () in
  check_int "empty count" 0 (Metric.observations h);
  check_float "empty mean" 0.0 (Metric.mean h);
  check_float "empty quantile" 0.0 (Metric.quantile h 0.5);
  List.iter (Metric.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Metric.observations h);
  check_float "sum exact" 10.0 (Metric.sum h);
  check_float "mean exact" 2.5 (Metric.mean h);
  check_float "min exact" 1.0 (Metric.min_value h);
  check_float "max exact" 4.0 (Metric.max_value h);
  Metric.reset_histogram h;
  check_int "reset count" 0 (Metric.observations h);
  check_float "reset sum" 0.0 (Metric.sum h)

let test_histogram_quantiles () =
  let h = Metric.histogram () in
  (* 1..1000: quantiles must land within the bucket resolution (~9%). *)
  for i = 1 to 1000 do
    Metric.observe_int h i
  done;
  let close ~expect got =
    let err = abs_float (got -. expect) /. expect in
    check_bool
      (Printf.sprintf "quantile near %g (got %g, err %.3f)" expect got err)
      true (err < 0.10)
  in
  close ~expect:500.0 (Metric.quantile h 0.5);
  close ~expect:950.0 (Metric.quantile h 0.95);
  close ~expect:990.0 (Metric.quantile h 0.99);
  let p = Metric.percentiles h in
  check_bool "p50 <= p95" true (p.Metric.p50 <= p.Metric.p95);
  check_bool "p95 <= p99" true (p.Metric.p95 <= p.Metric.p99);
  check_bool "p99 <= max" true (p.Metric.p99 <= p.Metric.max);
  check_float "max exact" 1000.0 p.Metric.max;
  (* quantiles are clamped into [min, max] *)
  check_bool "q0.01 >= min" true (Metric.quantile h 0.01 >= 1.0);
  check_bool "q1 <= max" true (Metric.quantile h 1.0 <= 1000.0)

let test_histogram_small_and_negative () =
  let h = Metric.histogram () in
  Metric.observe h 0.25;
  (* below 1.0 lands in the zero bucket *)
  Metric.observe h (-3.0);
  (* negative clamps but still counts *)
  check_int "count includes clamped" 2 (Metric.observations h);
  check_float "sum keeps real values" (-2.75) (Metric.sum h);
  check_float "min exact" (-3.0) (Metric.min_value h);
  check_float "max exact" 0.25 (Metric.max_value h)

(* --- Jsonx --- *)

let test_jsonx_roundtrip () =
  let samples =
    [
      Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Bool false;
      Jsonx.Int 0;
      Jsonx.Int (-42);
      Jsonx.Int max_int;
      Jsonx.Float 1.5;
      Jsonx.Float (-0.0078125);
      Jsonx.Float 1e100;
      Jsonx.String "";
      Jsonx.String "plain";
      Jsonx.String "esc \" \\ \n \t \r \x00 \x1f";
      Jsonx.String "utf8: \xc3\xa9\xe2\x82\xac";
      Jsonx.List [];
      Jsonx.List [ Jsonx.Int 1; Jsonx.String "two"; Jsonx.Null ];
      Jsonx.Obj [];
      Jsonx.Obj
        [
          ("a", Jsonx.Int 1);
          ("b", Jsonx.List [ Jsonx.Obj [ ("c", Jsonx.Bool false) ] ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonx.to_string v in
      check_bool "single line" true (not (String.contains s '\n'));
      match Jsonx.of_string s with
      | Ok v' -> check_bool ("roundtrip " ^ s) true (Jsonx.equal v v')
      | Error e -> Alcotest.failf "parse error on %s: %s" s e)
    samples

let test_jsonx_int_float_distinct () =
  (* 1 parses as Int, 1.0 as Float; the printer keeps them apart. *)
  check_string "int prints bare" "1" (Jsonx.to_string (Jsonx.Int 1));
  let f = Jsonx.to_string (Jsonx.Float 1.0) in
  check_bool "float keeps a dot or exponent" true
    (String.contains f '.' || String.contains f 'e');
  (match Jsonx.of_string "7" with
  | Ok (Jsonx.Int 7) -> ()
  | _ -> Alcotest.fail "7 should parse as Int");
  match Jsonx.of_string "7.0" with
  | Ok (Jsonx.Float 7.0) -> ()
  | _ -> Alcotest.fail "7.0 should parse as Float"

let test_jsonx_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "truth"; "\"unterminated"; "{\"a\" 1}"; "1 2" ] in
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error on %S" s)
    bad

let test_jsonx_accessors () =
  let v =
    Jsonx.Obj [ ("n", Jsonx.Int 3); ("f", Jsonx.Float 2.5); ("s", Jsonx.String "x") ]
  in
  check_bool "member n" true (Jsonx.member "n" v = Some (Jsonx.Int 3));
  check_bool "member missing" true (Jsonx.member "zz" v = None);
  check_bool "to_int" true (Jsonx.to_int (Jsonx.Int 3) = Some 3);
  check_bool "to_float of int" true (Jsonx.to_float (Jsonx.Int 3) = Some 3.0);
  check_bool "to_str" true (Jsonx.to_str (Jsonx.String "x") = Some "x")

(* --- Event --- *)

let test_event_roundtrip () =
  let ev =
    Event.v ~ts:(Event.Step 12) "sim.step"
      [ ("op", Jsonx.String "join"); ("total_bits", Jsonx.Int 96) ]
  in
  let line = Event.to_string ev in
  check_bool "one line" true (not (String.contains line '\n'));
  (match Event.of_string line with
  | Ok ev' -> check_bool "roundtrip" true (Event.equal ev ev')
  | Error e -> Alcotest.failf "parse error: %s" e);
  let wall = Event.v ~ts:(Event.Wall_ns 123456789L) "x" [] in
  (match Event.of_string (Event.to_string wall) with
  | Ok ev' -> check_bool "wall roundtrip" true (Event.equal wall ev')
  | Error e -> Alcotest.failf "wall parse error: %s" e);
  let untimed = Event.v "y" [ ("k", Jsonx.Null) ] in
  match Event.of_string (Event.to_string untimed) with
  | Ok ev' -> check_bool "untimed roundtrip" true (Event.equal untimed ev')
  | Error e -> Alcotest.failf "untimed parse error: %s" e

(* qcheck: arbitrary events survive the JSONL round trip *)

let field_name_gen =
  QCheck2.Gen.(
    map
      (fun s -> "f_" ^ s)
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 8)))

let jsonx_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Jsonx.Null;
              map (fun b -> Jsonx.Bool b) bool;
              map (fun i -> Jsonx.Int i) int;
              map (fun f -> Jsonx.Float f) (float_range (-1e6) 1e6);
              map (fun s -> Jsonx.String s) (string_size (int_range 0 12));
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map
                  (fun l -> Jsonx.List l)
                  (list_size (int_range 0 3) (self (n / 2))) );
              ( 1,
                map
                  (fun l -> Jsonx.Obj l)
                  (list_size (int_range 0 3)
                     (pair field_name_gen (self (n / 2)))) );
            ]))

let event_gen =
  QCheck2.Gen.(
    let ts =
      oneof
        [
          return Event.Untimed;
          map (fun k -> Event.Step k) nat;
          map (fun n -> Event.Wall_ns (Int64.of_int n)) nat;
        ]
    in
    map
      (fun (ts, name, fields) ->
        (* dedupe field names: Obj equality is order-sensitive and the
           decoder keeps the first binding *)
        let seen = Hashtbl.create 8 in
        let fields =
          List.filter
            (fun (k, _) ->
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.add seen k ();
                true
              end)
            fields
        in
        Event.v ~ts ("ev_" ^ name) fields)
      (triple ts
         (string_size ~gen:(char_range 'a' 'z') (int_range 0 10))
         (list_size (int_range 0 5) (pair field_name_gen jsonx_gen))))

let qcheck_event_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"event JSONL roundtrip" event_gen
    (fun ev ->
      match Event.of_string (Event.to_string ev) with
      | Ok ev' -> Event.equal ev ev'
      | Error _ -> false)

let qcheck_jsonx_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"jsonx roundtrip" jsonx_gen (fun v ->
      match Jsonx.of_string (Jsonx.to_string v) with
      | Ok v' -> Jsonx.equal v v'
      | Error _ -> false)

(* --- Registry --- *)

let test_registry () =
  let r = Registry.create () in
  let c = Registry.counter r "ops_total" in
  Metric.inc c;
  check_bool "get-or-create returns same" true
    (Registry.counter r "ops_total" == c);
  check_int "count survives re-get" 1
    (Metric.count (Registry.counter r "ops_total"));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Registry: \"ops_total\" is not a gauge") (fun () ->
      ignore (Registry.gauge r "ops_total"));
  ignore (Registry.gauge r "depth");
  ignore (Registry.histogram r "lat_ns{op=\"join\"}");
  check_int "cardinal" 3 (Registry.cardinal r);
  check_bool "find" true (Registry.find r "depth" <> None);
  check_bool "find missing" true (Registry.find r "nope" = None);
  let names = List.map fst (Registry.snapshot r) in
  check_bool "snapshot sorted" true (names = List.sort compare names);
  Registry.reset r;
  check_int "reset keeps registration" 3 (Registry.cardinal r);
  check_int "reset zeroes" 0 (Metric.count (Registry.counter r "ops_total"));
  Registry.clear r;
  check_int "clear drops" 0 (Registry.cardinal r)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_registry_exposition () =
  let r = Registry.create () in
  Metric.add (Registry.counter r "reqs_total") 3;
  Metric.set (Registry.gauge r "temp") 21.5;
  let h = Registry.histogram r "lat_ns{op=\"join\"}" in
  List.iter (Metric.observe h) [ 10.0; 20.0; 30.0 ];
  let prom = Registry.to_prometheus r in
  check_bool "counter line" true (contains ~needle:"reqs_total 3" prom);
  check_bool "gauge line" true (contains ~needle:"temp 21.5" prom);
  check_bool "histogram count with labels" true
    (contains ~needle:"lat_ns_count{op=\"join\"} 3" prom);
  check_bool "histogram quantile label" true
    (contains ~needle:"quantile=\"0.5\"" prom);
  let json = Registry.to_json r in
  (match Jsonx.member "reqs_total" json with
  | Some v -> check_bool "json counter" true (Jsonx.to_int v = Some 3)
  | None -> Alcotest.fail "reqs_total missing from json");
  (match Jsonx.member "lat_ns{op=\"join\"}" json with
  | Some v ->
      check_bool "json histogram count" true
        (Jsonx.member "count" v |> Option.map Jsonx.to_int
        = Some (Some 3))
  | None -> Alcotest.fail "histogram missing from json");
  (* the JSON snapshot is itself valid JSON text *)
  match Jsonx.of_string (Jsonx.to_string json) with
  | Ok v -> check_bool "snapshot parses back" true (Jsonx.equal v json)
  | Error e -> Alcotest.failf "snapshot reparse: %s" e

(* --- Sink --- *)

let test_sink_memory () =
  let s = Sink.memory () in
  let e1 = Event.v ~ts:(Event.Step 1) "a" [] in
  let e2 = Event.v ~ts:(Event.Step 2) "b" [ ("x", Jsonx.Int 1) ] in
  Sink.emit s e1;
  Sink.emit s e2;
  check_int "emitted" 2 (Sink.emitted s);
  (match Sink.contents s with
  | [ a; b ] ->
      check_bool "order preserved" true (Event.equal a e1 && Event.equal b e2)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  Sink.emit Sink.null e1;
  check_bool "null keeps nothing" true (Sink.contents Sink.null = [])

let test_sink_file () =
  let path = Filename.temp_file "vstamp_obs" ".jsonl" in
  let s = Sink.to_file path in
  Sink.emit s (Event.v ~ts:(Event.Step 0) "hello" [ ("n", Jsonx.Int 7) ]);
  Sink.emit s (Event.v "bye" []);
  Sink.close s;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  check_int "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match Event.of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad line %S: %s" l e)
    lines

(* --- Core instrumentation (Instr) --- *)

let sim_trace () = Vstamp_sim.Workload.uniform ~seed:5 ~n_ops:80 ()

let test_instr_counters () =
  let open Vstamp_core in
  let ops = sim_trace () in
  Instr.reset ();
  Instr.enabled := false;
  ignore (Execution.Run_stamps.run ops);
  let off = Instr.read () in
  check_int "disabled counts nothing"
    0
    (off.Instr.updates + off.Instr.forks + off.Instr.joins);
  Instr.enabled := true;
  let frontier = Execution.Run_stamps.run ops in
  List.iter (fun s -> ignore (Vstamp_codec.Wire.stamp_to_string s)) frontier;
  Instr.enabled := false;
  let on = Instr.read () in
  check_bool "updates counted" true (on.Instr.updates > 0);
  check_bool "forks counted" true (on.Instr.forks > 0);
  check_bool "joins counted" true (on.Instr.joins > 0);
  check_bool "wire bytes counted" true (on.Instr.wire_bytes_encoded > 0);
  check_int "stamps encoded = frontier" (List.length frontier)
    on.Instr.wire_stamps_encoded;
  Instr.reset ();
  let zero = Instr.read () in
  check_int "reset zeroes" 0
    (zero.Instr.updates + zero.Instr.forks + zero.Instr.joins
   + zero.Instr.wire_bytes_encoded)

let test_instr_observer () =
  let open Vstamp_core in
  let seen = ref 0 in
  Instr.reset ();
  Instr.set_observer
    (Some
       (fun ev ->
         incr seen;
         check_bool "bits_after nonnegative" true (ev.Instr.bits_after >= 0);
         check_bool "depth nonnegative" true (ev.Instr.depth >= 0)));
  Instr.enabled := true;
  ignore (Execution.Run_stamps.run (sim_trace ()));
  Instr.enabled := false;
  Instr.set_observer None;
  let c = Instr.read () in
  check_int "observer saw every op" (c.Instr.updates + c.Instr.forks + c.Instr.joins + c.Instr.reduces)
    !seen;
  Instr.reset ()

(* --- Determinism of the simulator event stream --- *)

let run_lines () =
  let sink = Sink.memory () in
  let registry = Registry.create () in
  ignore
    (Vstamp_sim.System.run ~with_oracle:false ~registry ~sink
       Vstamp_sim.Tracker.stamps (sim_trace ()));
  List.map Event.to_string (Sink.contents sink)

let test_sim_stream_deterministic () =
  let a = run_lines () in
  let b = run_lines () in
  check_bool "two runs byte-identical" true (a = b);
  check_bool "stream nonempty" true (List.length a > 2);
  List.iter
    (fun line ->
      match Event.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e)
    a;
  (* stable digest: same trace, same digest, run to run *)
  let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  check_string "stable digest" (digest a) (digest b);
  (* the stream starts with sim.start at step 0 and ends with sim.result *)
  match (List.hd a, List.rev a |> List.hd) with
  | first, last ->
      check_bool "starts with sim.start" true
        (contains ~needle:"\"event\":\"sim.start\"" first);
      check_bool "ends with sim.result" true
        (contains ~needle:"\"event\":\"sim.result\"" last)

let test_telemetry_attach () =
  let open Vstamp_core in
  let r = Registry.create () in
  Instr.reset ();
  Vstamp_sim.Telemetry.attach ~registry:r ();
  ignore (Execution.Run_stamps.run (sim_trace ()));
  Vstamp_sim.Telemetry.detach ();
  Vstamp_sim.Telemetry.sync_counters r;
  let fork_count =
    Metric.count (Registry.counter r "core_stamp_ops_total{op=\"fork\"}")
  in
  check_bool "observer mirrored forks" true (fork_count > 0);
  check_float "gauge mirrors counter" (float_of_int fork_count)
    (Metric.value (Registry.gauge r "core_forks"));
  let ev = Vstamp_sim.Telemetry.counters_event ~step:9 () in
  (match Event.of_string (Event.to_string ev) with
  | Ok ev' -> check_bool "counters event roundtrips" true (Event.equal ev ev')
  | Error e -> Alcotest.failf "counters event: %s" e);
  Instr.reset ()

(* --- Stats.summary (percentile aggregation) --- *)

let test_stats_summary () =
  let s = Vstamp_sim.Stats.summary [ 5; 1; 9; 3; 7 ] in
  check_int "n" 5 s.Vstamp_sim.Stats.n;
  check_float "mean" 5.0 s.Vstamp_sim.Stats.mean;
  check_int "max" 9 s.Vstamp_sim.Stats.max;
  check_bool "p50 <= p95" true
    (s.Vstamp_sim.Stats.p50 <= s.Vstamp_sim.Stats.p95);
  check_bool "p95 <= p99" true
    (s.Vstamp_sim.Stats.p95 <= s.Vstamp_sim.Stats.p99);
  check_bool "p99 <= max" true
    (s.Vstamp_sim.Stats.p99 <= float_of_int s.Vstamp_sim.Stats.max);
  let empty = Vstamp_sim.Stats.summary [] in
  check_int "empty n" 0 empty.Vstamp_sim.Stats.n;
  check_float "empty mean" 0.0 empty.Vstamp_sim.Stats.mean

(* --- Label escaping (the /metrics text exposition) --- *)

let test_label_escape_basics () =
  check_string "backslash" "a\\\\b" (Registry.escape_label_value "a\\b");
  check_string "quote" "say \\\"hi\\\"" (Registry.escape_label_value "say \"hi\"");
  check_string "newline" "l1\\nl2" (Registry.escape_label_value "l1\nl2");
  (match Registry.unescape_label_value "a\\\\b\\\"c\\nd" with
  | Ok s -> check_string "unescape" "a\\b\"c\nd" s
  | Error m -> Alcotest.failf "unescape failed: %s" m);
  (match Registry.unescape_label_value "trailing\\" with
  | Ok _ -> Alcotest.fail "dangling backslash must be rejected"
  | Error _ -> ());
  match Registry.unescape_label_value "bad\\q" with
  | Ok _ -> Alcotest.fail "unknown escape must be rejected"
  | Error _ -> ()

(* Satellite property: label values containing backslashes, double
   quotes and newlines survive the round trip through the /metrics
   text format — both at the string level (escape then unescape) and
   through an actual exposition of a labelled counter. *)
let label_value_gen =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (5, printable);
             (2, return '\\');
             (2, return '"');
             (2, return '\n');
           ])
      (0 -- 24))

let qcheck_label_escape_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"label value escape round trip"
    label_value_gen (fun v ->
      Registry.unescape_label_value (Registry.escape_label_value v) = Ok v)

let qcheck_label_metrics_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"label values survive /metrics text"
    label_value_gen (fun v ->
      let r = Registry.create () in
      let name = Registry.with_labels "escape_test_total" [ ("k", v) ] in
      Metric.inc (Registry.counter r name);
      let text = Registry.to_prometheus r in
      let sample =
        List.find_opt
          (fun l -> String.length l > 0 && l.[0] <> '#')
          (String.split_on_char '\n' text)
      in
      match sample with
      | None -> false
      | Some line ->
          (* the escaped value cannot contain a raw quote or newline, so
             the sample is one line bracketed by fixed prefix/suffix *)
          let prefix = "escape_test_total{k=\"" and suffix = "\"} 1" in
          let plen = String.length prefix and slen = String.length suffix in
          String.length line >= plen + slen
          && String.sub line 0 plen = prefix
          && String.sub line (String.length line - slen) slen = suffix
          && String.sub line plen (String.length line - plen - slen)
             |> Registry.unescape_label_value = Ok v)

(* --- runner --- *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "metric",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram edge values" `Quick
            test_histogram_small_and_negative;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "int/float distinct" `Quick
            test_jsonx_int_float_distinct;
          Alcotest.test_case "parse errors" `Quick test_jsonx_parse_errors;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
          qc qcheck_jsonx_roundtrip;
        ] );
      ( "event",
        [
          Alcotest.test_case "roundtrip" `Quick test_event_roundtrip;
          qc qcheck_event_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lifecycle" `Quick test_registry;
          Alcotest.test_case "exposition" `Quick test_registry_exposition;
          Alcotest.test_case "label escaping" `Quick test_label_escape_basics;
          qc qcheck_label_escape_roundtrip;
          qc qcheck_label_metrics_roundtrip;
        ] );
      ( "sink",
        [
          Alcotest.test_case "memory" `Quick test_sink_memory;
          Alcotest.test_case "file" `Quick test_sink_file;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "counters" `Quick test_instr_counters;
          Alcotest.test_case "observer" `Quick test_instr_observer;
          Alcotest.test_case "telemetry bridge" `Quick test_telemetry_attach;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_sim_stream_deterministic;
          Alcotest.test_case "stats summary" `Quick test_stats_summary;
        ] );
    ]
