open Vstamp_core
open Vstamp_sim
module Obs = Vstamp_obs

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let counter_value reg name = Obs.Metric.count (Obs.Registry.counter reg name)

(* --- the monitor itself --- *)

let test_monitor_pass () =
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.memory () in
  let m = Obs.Monitor.create ~registry:reg ~sink "t" in
  check_bool "clean check passes" true (Obs.Monitor.check m ~step:1 (fun () -> []));
  check_int "checks" 1 (Obs.Monitor.checks m);
  check_int "violations" 0 (Obs.Monitor.violations m);
  check_int "checks counter" 1
    (counter_value reg {|vstamp_invariant_checks_total{monitor="t"}|});
  check_int "violations counter" 0
    (counter_value reg {|vstamp_invariant_violations_total{monitor="t"}|});
  check_int "no events" 0 (List.length (Obs.Sink.contents sink));
  check_bool "no first violation" true (Obs.Monitor.first_violation m = None)

let test_monitor_fail () =
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.memory () in
  let m = Obs.Monitor.create ~registry:reg ~sink "t" in
  let witness () = [ ("broken", Obs.Jsonx.Bool true) ] in
  check_bool "failing check reports" false (Obs.Monitor.check m ~step:7 witness);
  check_bool "later clean check still passes" true
    (Obs.Monitor.check m ~step:8 (fun () -> []));
  check_int "checks" 2 (Obs.Monitor.checks m);
  check_int "violations" 1 (Obs.Monitor.violations m);
  check_int "violations counter" 1
    (counter_value reg {|vstamp_invariant_violations_total{monitor="t"}|});
  (match Obs.Sink.contents sink with
  | [ ev ] ->
      Alcotest.(check string) "event name" "invariant.violation" ev.Obs.Event.name;
      check_bool "step timestamp" true (ev.Obs.Event.ts = Obs.Event.Step 7);
      check_bool "monitor field" true
        (List.assoc_opt "monitor" ev.Obs.Event.fields
        = Some (Obs.Jsonx.String "t"));
      check_bool "witness field" true
        (List.assoc_opt "broken" ev.Obs.Event.fields = Some (Obs.Jsonx.Bool true))
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
  match Obs.Monitor.first_violation m with
  | Some (7, fields) ->
      check_bool "first violation witness" true
        (List.assoc_opt "broken" fields = Some (Obs.Jsonx.Bool true))
  | _ -> Alcotest.fail "first violation not recorded"

(* Every family a monitor registers is exposed with its name as a
   Prometheus label value: a tab, a quote, a backslash, a line feed or
   a UTF-8 byte in the name comes back out of [unescape_label_value]. *)
let test_monitor_label_escaping () =
  let reg = Obs.Registry.create () in
  let name = "a\tb \"c\" \\ d\n\xc3\xa9" in
  ignore (Obs.Monitor.create ~registry:reg name);
  let lines = String.split_on_char '\n' (Obs.Registry.to_prometheus reg) in
  List.iter
    (fun base ->
      let prefix = base ^ "{monitor=\"" in
      match List.find_opt (String.starts_with ~prefix) lines with
      | None -> Alcotest.failf "no %s line" base
      | Some line -> (
          let stop = String.rindex line '}' - 1 in
          let escaped =
            String.sub line (String.length prefix)
              (stop - String.length prefix)
          in
          match Obs.Registry.unescape_label_value escaped with
          | Ok v -> Alcotest.(check string) base name v
          | Error m -> Alcotest.failf "%s: %s in %S" base m line))
    [
      "vstamp_invariant_checks_total";
      "vstamp_invariant_violations_total";
      "vstamp_monitor_coverage";
    ]

(* --- System.run wiring: clean mechanisms never violate --- *)

let test_run_clean () =
  let ops = Workload.uniform ~seed:5 ~n_ops:120 () in
  List.iter
    (fun tracker ->
      let reg = Obs.Registry.create () in
      let (_ : System.result) =
        System.run ~with_oracle:false ~registry:reg ~check_invariants:true
          tracker ops
      in
      let name = Tracker.name tracker in
      check_int
        (Printf.sprintf "%s: one check per step plus the seed" name)
        (List.length ops + 1)
        (counter_value reg
           (Printf.sprintf "vstamp_invariant_checks_total{monitor=%S}" name));
      check_int
        (Printf.sprintf "%s: no violations" name)
        0
        (counter_value reg
           (Printf.sprintf "vstamp_invariant_violations_total{monitor=%S}" name)))
    [ Tracker.stamps; Tracker.stamps_list; Tracker.version_vectors ]

(* --- a deliberately corrupted mechanism is caught with a minimal
       witness --- *)

(* I1 demands update <= id; this stamp's update part names a subtree the
   id does not own. *)
let bad_stamp =
  Stamp.make_unchecked
    ~update:(Name_tree.of_list [ Bits.of_digits [ Bits.One ] ])
    ~id:(Name_tree.of_list [ Bits.of_digits [ Bits.Zero ] ])

module Corrupt = struct
  type t = Stamp.t

  type state = int

  let name = "corrupt"

  let initial = (0, Stamp.seed)

  let update n s = (n + 1, if n + 1 >= 3 then bad_stamp else Stamp.update s)

  let fork n s = (n, Stamp.fork s)

  let join n a b = (n, Stamp.join a b)

  let leq = Stamp.leq

  let size_bits = Stamp.size_bits

  let invariants = Invariants.check

  let pp = Stamp.pp
end

let corrupt = Tracker.Packed (module Corrupt)

let test_corrupted_stamp_caught () =
  let ops = Execution.[ Update 0; Update 0; Update 0; Update 0; Update 0 ] in
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.memory () in
  let file = Filename.temp_file "vstamp_violation" ".trace" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      match
        System.run ~with_oracle:false ~registry:reg ~sink
          ~check_invariants:true ~violation_out:file corrupt ops
      with
      | (_ : System.result) -> Alcotest.fail "corruption not detected"
      | exception
          System.Invariant_violation
            { tracker; step; violations; prefix; saved; _ } -> (
          Alcotest.(check string) "tracker named" "corrupt" tracker;
          check_int "detected at the third update" 3 step;
          check_bool "I1 witness at position 0" true
            (List.mem (Invariants.I1 0) violations);
          check_int "minimal prefix stops at the offending op" 3
            (List.length prefix);
          check_bool "prefix saved" true (saved = Some file);
          (* the saved prefix is a loadable, replayable trace *)
          (match Trace.load ~file with
          | Ok ops' -> check_bool "saved prefix loads" true (ops' = prefix)
          | Error e -> Alcotest.failf "saved prefix unloadable: %a" Trace.pp_error e);
          check_int "violation counted" 1
            (counter_value reg
               {|vstamp_invariant_violations_total{monitor="corrupt"}|});
          (* the violation event carries the serialized witness *)
          match
            List.filter
              (fun ev -> ev.Obs.Event.name = "invariant.violation")
              (Obs.Sink.contents sink)
          with
          | [ ev ] ->
              check_bool "witness serialized" true
                (match List.assoc_opt "violations" ev.Obs.Event.fields with
                | Some (Obs.Jsonx.List (_ :: _)) -> true
                | _ -> false)
          | evs ->
              Alcotest.failf "expected one violation event, got %d"
                (List.length evs)))

(* --- order sanity: a broken leq trips the monitor even when the
       stamps themselves are fine --- *)

module Broken_order = struct
  type t = Stamp.t

  type state = unit

  let name = "broken-order"

  let initial = ((), Stamp.seed)

  let update () s = ((), Stamp.update s)

  let fork () s = ((), Stamp.fork s)

  let join () a b = ((), Stamp.join a b)

  let leq _ _ = false

  let size_bits = Stamp.size_bits

  let invariants _ = []

  let pp = Stamp.pp
end

let test_broken_order_caught () =
  match
    System.run ~with_oracle:false ~check_invariants:true
      (Tracker.Packed (module Broken_order))
      [ Execution.Update 0 ]
  with
  | (_ : System.result) -> Alcotest.fail "broken order not detected"
  | exception System.Invariant_violation { step; violations; prefix; _ } ->
      check_int "caught on the seed frontier" 0 step;
      check_bool "no stamp-invariant witnesses" true (violations = []);
      check_int "empty prefix" 0 (List.length prefix)

(* monitors off (the default): the corrupted run completes silently *)
let test_default_off () =
  let ops = Execution.[ Update 0; Update 0; Update 0; Update 0 ] in
  let r = System.run ~with_oracle:false corrupt ops in
  check_int "run completed" 4 r.System.ops

(* --- sampling --- *)

let test_sampling_every_n () =
  let m = Obs.Monitor.create ~registry:(Obs.Registry.create ()) ~sampling:(Obs.Monitor.Every_n 3) "t" in
  let evaluated = ref 0 in
  for step = 0 to 9 do
    ignore
      (Obs.Monitor.check m ~step (fun () ->
           incr evaluated;
           [])
        : bool)
  done;
  (* pre-increment election: offered steps 0,3,6,9 are checked *)
  check_int "4 of 10 checked" 4 (Obs.Monitor.checks m);
  check_int "witness evaluated only when checked" 4 !evaluated;
  check_int "all offers seen" 10 (Obs.Monitor.steps_seen m);
  check_bool "coverage is checks/seen" true
    (abs_float (Obs.Monitor.coverage m -. 0.4) < 1e-9);
  check_bool "last checked step" true
    (Obs.Monitor.last_checked_step m = Some 9)

let test_sampling_probability_injected () =
  (* inject the draws: the monitor checks exactly when draw < p *)
  let draws = ref [ 0.9; 0.1; 0.5; 0.0 ] in
  let sample () =
    match !draws with
    | [] -> 1.0
    | d :: rest ->
        draws := rest;
        d
  in
  let m =
    Obs.Monitor.create ~registry:(Obs.Registry.create ())
      ~sampling:(Obs.Monitor.Probability 0.4) ~sample "t"
  in
  let checked = ref [] in
  for step = 0 to 3 do
    ignore
      (Obs.Monitor.check m ~step (fun () ->
           checked := step :: !checked;
           [])
        : bool)
  done;
  check_bool "draws 0.1 and 0.0 elected" true (List.rev !checked = [ 1; 3 ]);
  check_int "two checks" 2 (Obs.Monitor.checks m)

let test_sampling_skip_passes_without_evaluating () =
  let m =
    Obs.Monitor.create ~registry:(Obs.Registry.create ())
      ~sampling:(Obs.Monitor.Every_n 1000) "t"
  in
  ignore (Obs.Monitor.check m ~step:0 (fun () -> []) : bool);
  (* a skipped step reports success and must not run the witness *)
  check_bool "skipped step passes" true
    (Obs.Monitor.check m ~step:1 (fun () -> Alcotest.fail "witness ran"));
  (* force overrides the policy *)
  check_bool "forced step evaluates" false
    (Obs.Monitor.check m ~force:true ~step:2 (fun () ->
         [ ("broken", Obs.Jsonx.Bool true) ]));
  check_int "two checks (step 0 and forced)" 2 (Obs.Monitor.checks m)

let test_sampling_validation () =
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "Every_n 0 rejected" true
    (invalid (fun () -> Obs.Monitor.create ~sampling:(Obs.Monitor.Every_n 0) "t"));
  check_bool "negative probability rejected" true
    (invalid (fun () ->
         Obs.Monitor.create ~sampling:(Obs.Monitor.Probability (-0.1)) "t"));
  check_bool "probability over 1 rejected" true
    (invalid (fun () ->
         Obs.Monitor.create ~sampling:(Obs.Monitor.Probability 1.5) "t"))

let test_sampled_violation_event_replay_window () =
  let sink = Obs.Sink.memory () in
  let m =
    Obs.Monitor.create ~registry:(Obs.Registry.create ()) ~sink
      ~sampling:(Obs.Monitor.Every_n 2) "t"
  in
  (* step 0 checked clean, step 1 skipped, step 2 checked and violating:
     the event must name (0, 2] as the replay window *)
  ignore (Obs.Monitor.check m ~step:0 (fun () -> []) : bool);
  ignore (Obs.Monitor.check m ~step:1 (fun () -> [ ("missed", Obs.Jsonx.Bool true) ]) : bool);
  check_bool "violation at the sampled step" false
    (Obs.Monitor.check m ~step:2 (fun () -> [ ("broken", Obs.Jsonx.Bool true) ]));
  match Obs.Sink.contents sink with
  | [ ev ] ->
      let field name = List.assoc_opt name ev.Obs.Event.fields in
      check_bool "sampling policy recorded" true
        (field "sampling" = Some (Obs.Jsonx.String "every_n:2"));
      check_bool "previous checked step recorded" true
        (field "prev_checked_step" = Some (Obs.Jsonx.Int 0));
      check_bool "seen recorded" true
        (field "steps_seen" = Some (Obs.Jsonx.Int 3));
      check_bool "checked recorded" true
        (field "steps_checked" = Some (Obs.Jsonx.Int 2))
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

(* --- sampled System.run: deterministic thinning, forced final check --- *)

let test_run_sampled_counts () =
  let ops = Workload.uniform ~seed:5 ~n_ops:120 () in
  let checks_with sampling =
    let reg = Obs.Registry.create () in
    let (_ : System.result) =
      System.run ~with_oracle:false ~registry:reg ~check_invariants:true
        ~sampling Tracker.stamps ops
    in
    counter_value reg {|vstamp_invariant_checks_total{monitor="stamps"}|}
  in
  (* 121 offered steps (seed + 120 ops); every 10th from the seed is 13,
     and the 13th lands on the final step, so no extra forced check *)
  check_int "Every_n 10 checks 13 steps" 13
    (checks_with (Obs.Monitor.Every_n 10));
  (* every 7th checks 18 steps ending at 119; the final frontier is then
     force-checked on top *)
  check_int "Every_n 7 checks 18+1 steps" 19
    (checks_with (Obs.Monitor.Every_n 7));
  check_int "Always still checks everything" 121
    (checks_with Obs.Monitor.Always)

let test_run_sampled_deterministic () =
  let ops = Workload.uniform ~seed:5 ~n_ops:200 () in
  let coverage ~sample_seed =
    let reg = Obs.Registry.create () in
    let (_ : System.result) =
      System.run ~with_oracle:false ~registry:reg ~check_invariants:true
        ~sampling:(Obs.Monitor.Probability 0.25) ~sample_seed Tracker.stamps
        ops
    in
    ( counter_value reg {|vstamp_invariant_checks_total{monitor="stamps"}|},
      match Obs.Registry.find reg {|vstamp_monitor_coverage{monitor="stamps"}|} with
      | Some (Obs.Registry.Gauge g) -> Obs.Metric.value g
      | _ -> nan )
  in
  let c1, cov1 = coverage ~sample_seed:42 in
  let c2, cov2 = coverage ~sample_seed:42 in
  check_int "same seed, same checks" c1 c2;
  check_bool "same seed, same coverage" true (cov1 = cov2);
  check_bool "coverage near the probability" true
    (cov1 > 0.1 && cov1 < 0.5);
  let c3, _ = coverage ~sample_seed:43 in
  check_bool "a different seed may thin differently" true (c3 > 0)

let test_run_sampled_still_catches () =
  (* the corrupt tracker violates from its third update onward; a sparse
     Every_n 5 skips steps 1-4 but the step-5 check (and the forced
     final check semantics) still catch it, and the event names the
     replay window *)
  let ops = Execution.[ Update 0; Update 0; Update 0; Update 0; Update 0 ] in
  let sink = Obs.Sink.memory () in
  match
    System.run ~with_oracle:false ~registry:(Obs.Registry.create ()) ~sink
      ~check_invariants:true ~sampling:(Obs.Monitor.Every_n 5) corrupt ops
  with
  | (_ : System.result) -> Alcotest.fail "corruption not detected"
  | exception System.Invariant_violation { step; prefix; _ } -> (
      check_int "caught at the first sampled step past it" 5 step;
      check_int "prefix covers the whole window" 5 (List.length prefix);
      match
        List.filter
          (fun ev -> ev.Obs.Event.name = "invariant.violation")
          (Obs.Sink.contents sink)
      with
      | [ ev ] ->
          let field name = List.assoc_opt name ev.Obs.Event.fields in
          check_bool "policy in event" true
            (field "sampling" = Some (Obs.Jsonx.String "every_n:5"));
          check_bool "window start in event" true
            (field "prev_checked_step" = Some (Obs.Jsonx.Int 0))
      | evs ->
          Alcotest.failf "expected one violation event, got %d"
            (List.length evs))

let () =
  Alcotest.run "monitor"
    [
      ( "monitor",
        [
          Alcotest.test_case "passing checks" `Quick test_monitor_pass;
          Alcotest.test_case "failing checks" `Quick test_monitor_fail;
          Alcotest.test_case "label escaping" `Quick
            test_monitor_label_escaping;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "every_n election" `Quick test_sampling_every_n;
          Alcotest.test_case "probability election" `Quick
            test_sampling_probability_injected;
          Alcotest.test_case "skip and force" `Quick
            test_sampling_skip_passes_without_evaluating;
          Alcotest.test_case "validation" `Quick test_sampling_validation;
          Alcotest.test_case "violation replay window" `Quick
            test_sampled_violation_event_replay_window;
        ] );
      ( "system",
        [
          Alcotest.test_case "clean mechanisms" `Quick test_run_clean;
          Alcotest.test_case "corrupted stamp caught" `Quick
            test_corrupted_stamp_caught;
          Alcotest.test_case "broken order caught" `Quick
            test_broken_order_caught;
          Alcotest.test_case "off by default" `Quick test_default_off;
          Alcotest.test_case "sampled check counts" `Quick
            test_run_sampled_counts;
          Alcotest.test_case "sampled runs deterministic" `Quick
            test_run_sampled_deterministic;
          Alcotest.test_case "sampling still catches" `Quick
            test_run_sampled_still_catches;
        ] );
    ]
