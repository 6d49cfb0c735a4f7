(* The telemetry formats each have one writer or reader in lib/obs.
   The digests below pin the bytes of every export those owners
   produce; they were taken before the per-module copies were merged,
   so a merge that moves one byte fails here.  The drift cases pin the
   rules the copies disagreed on: DOT escaping of line breaks, and JSONL
   errors that name the failing line. *)

open Vstamp_sim
open Vstamp_obs

let pin what expected text =
  Alcotest.(check string) what expected (Digest.to_hex (Digest.string text))

let fig4 () = fst (Forensics.record Tracker.stamps Scenario.Fig4.trace)

let test_causal_trace_exports () =
  let t = fig4 () in
  pin "to_chrome" "940d6a723e9d81267f66a72ee7cd3720"
    (Jsonx.to_string (Causal_trace.to_chrome t));
  pin "to_dot" "e459d6b4d132d02aa43034482a8b3b08" (Causal_trace.to_dot t)

(* Two nodes, a parent link, a sub-microsecond span (its duration is
   clamped to 1), stamps on some spans and free-form attributes. *)
let fixed_spans =
  let span ?parent ?stamp ?(attrs = []) ~node ~id ~start_ns ~end_ns name =
    {
      Trace_ctx.sp_trace = "t1";
      sp_id = id;
      sp_parent = parent;
      sp_node = node;
      sp_name = name;
      sp_start_ns = Int64.of_int start_ns;
      sp_end_ns = Int64.of_int end_ns;
      sp_domain = Option.map (fun _ -> "d") stamp;
      sp_stamp = stamp;
      sp_attrs = attrs;
    }
  in
  [
    span "sync.session" ~node:"node-b" ~id:"s1" ~start_ns:1_000_000
      ~end_ns:4_500_000 ~stamp:"[1|1]"
      ~attrs:[ ("keys", Jsonx.Int 3); ("peer", Jsonx.String "node-a") ];
    span "sync.apply" ~node:"node-a" ~id:"s2" ~parent:"s1" ~start_ns:2_000_000
      ~end_ns:2_000_400;
    span "put" ~node:"node-a" ~id:"s3" ~start_ns:7_250_000 ~end_ns:9_000_000
      ~stamp:"[1|0+1]"
      ~attrs:[ ("note", Jsonx.String "a \"quoted\" \\ value\n") ];
  ]

let test_trace_merge_export () =
  pin "to_chrome" "b0b7b6818fd89be6d7e43102973659cd"
    (Jsonx.to_string (Trace_merge.to_chrome fixed_spans))

let churn_config =
  { Churn.default_config with Churn.churn_rate = 2.0; rounds = 24; seed = 3 }

let test_idspace_exports () =
  let registry = Registry.create () in
  let r = Churn.run ~registry churn_config in
  pin "to_dot" "3db7b309c6f5c0eb1ba5a2cba7077671"
    (Idspace.to_dot r.Churn.genealogy);
  pin "view_json" "674b0a448469c799e8b28d5ffb26bd2b"
    (Jsonx.to_string (Idspace.view_json registry))

(* The convergence time is wall clock, so it is pinned to a constant
   before the export is taken; every other value is seeded. *)
let test_lag_json_export () =
  let registry = Registry.create () in
  let cfg =
    { Lag.default_config with Lag.severity = 0.8; rounds = 10; seed = 42 }
  in
  ignore (Lag.run ~registry cfg Tracker.stamps);
  Metric.set (Registry.gauge registry "vstamp_convergence_ns") 1e6;
  pin "lag_json" "aac6f209753337ed115e0341eeac4a1b"
    (Jsonx.to_string (Convergence.lag_json registry))

(* --- drift --- *)

(* Every DOT label sits between quotes on one line, so a raw line break
   inside the quotes would end the statement early. *)
let no_raw_break_in_quotes what dot =
  let inside = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then escaped := false
      else if !inside && c = '\\' then escaped := true
      else if c = '"' then inside := not !inside
      else if !inside && (c = '\n' || c = '\r') then
        Alcotest.failf "%s: raw %C inside a quoted string" what c)
    dot

let awkward = "a\"b\\c\nd\re"

let test_dot_line_breaks () =
  let ct = Causal_trace.create () in
  ignore
    (Causal_trace.add ct ~step:0 ~kind:Causal_trace.Seed ~parents:[]
       ~replica:0 ~label:awkward);
  no_raw_break_in_quotes "Causal_trace.to_dot" (Causal_trace.to_dot ct);
  let ids = Idspace.create () in
  ignore (Idspace.seed ids ~label:awkward [ "" ]);
  no_raw_break_in_quotes "Idspace.to_dot" (Idspace.to_dot ids)

let bad_third_line good =
  String.concat "\n" [ good; ""; "{\"truncated\":"; good ] ^ "\n"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* a reader given text says "line 3"; one given a file, "FILE:3:" *)
let names_line_3 what = function
  | Ok _ -> Alcotest.failf "%s: a malformed third line was accepted" what
  | Error m ->
      if not (contains m "line 3: " || contains m ":3: ") then
        Alcotest.failf "%s: error %S does not name line 3" what m

let test_jsonl_line_numbers () =
  let span = List.hd fixed_spans in
  names_line_3 "Trace_ctx.spans_of_jsonl"
    (Trace_ctx.spans_of_jsonl
       (bad_third_line (Trace_ctx.span_to_string span)));
  let trace = Causal_trace.to_jsonl (fig4 ()) in
  let first = List.hd (String.split_on_char '\n' trace) in
  names_line_3 "Causal_trace.of_jsonl"
    (Causal_trace.of_jsonl (bad_third_line first));
  let file = Filename.temp_file "vstamp_formats" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (bad_third_line {|{"schema":"vstamp-bench-core/3"}|}));
      names_line_3 "Bench_store.history" (Bench_store.history ~file))

(* An unreadable file is named once in every error about it:
   [read_file] gives the reason alone, whether the open fails (a
   missing file) or a read does (a directory, which opens), and each
   loader adds the name. *)
let test_read_errors_name_the_file_once () =
  let dir = Filename.temp_dir "vstamp_formats" "" in
  let missing = Filename.concat dir "missing.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun file ->
          let reason =
            match Jsonl.read_file file with
            | Ok _ -> Alcotest.failf "%s: read" file
            | Error m -> m
          in
          Alcotest.(check bool)
            (reason ^ ": a reason, without the file")
            true
            (reason <> "" && not (contains reason file));
          let named = file ^ ": " ^ reason in
          let check what got =
            Alcotest.(check (result reject string)) what (Error named) got
          in
          check "Jsonl.load" (Jsonl.load Jsonx.of_string file);
          check "Bench_store.load" (Bench_store.load ~file);
          check "Bench_store.history" (Bench_store.history ~file);
          check "Trace.load"
            (match Trace.load ~file with
            | _ -> Ok ()
            | exception Sys_error m -> Error m))
        [ missing; dir ])

let () =
  Alcotest.run "formats"
    [
      ( "digests",
        [
          Alcotest.test_case "causal trace chrome and dot" `Quick
            test_causal_trace_exports;
          Alcotest.test_case "trace merge chrome" `Quick
            test_trace_merge_export;
          Alcotest.test_case "idspace dot and view" `Quick test_idspace_exports;
          Alcotest.test_case "lag json" `Quick test_lag_json_export;
        ] );
      ( "drift",
        [
          Alcotest.test_case "DOT line breaks" `Quick test_dot_line_breaks;
          Alcotest.test_case "JSONL line numbers" `Quick
            test_jsonl_line_numbers;
          Alcotest.test_case "read errors name the file once" `Quick
            test_read_errors_name_the_file_once;
        ] );
    ]
