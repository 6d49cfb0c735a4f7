open Vstamp_core
open Vstamp_sim

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- Rng --- *)

let test_rng_deterministic () =
  let draws seed =
    let rec go rng k acc =
      if k = 0 then List.rev acc
      else
        let x, rng = Rng.int rng 1000 in
        go rng (k - 1) (x :: acc)
    in
    go (Rng.make seed) 20 []
  in
  Alcotest.(check (list int)) "same seed same draws" (draws 42) (draws 42);
  check_bool "different seeds differ" true (draws 42 <> draws 43)

let test_rng_bounds () =
  let rec go rng k =
    if k > 0 then begin
      let x, rng = Rng.int rng 7 in
      check_bool "in range" true (x >= 0 && x < 7);
      let f, rng = Rng.float rng in
      check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
      go rng (k - 1)
    end
  in
  go (Rng.make 9) 200;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.make 1) 0))

let test_rng_pick () =
  let x, _ = Rng.pick (Rng.make 5) [ "a"; "b"; "c" ] in
  check_bool "picks a member" true (List.mem x [ "a"; "b"; "c" ]);
  let w, _ = Rng.pick_weighted (Rng.make 5) [ (0, "never"); (10, "always") ] in
  Alcotest.(check string) "weight zero never drawn" "always" w

let test_rng_shuffle () =
  let xs = List.init 10 Fun.id in
  let ys, _ = Rng.shuffle (Rng.make 3) xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare ys)

let test_rng_split () =
  let a, b = Rng.split (Rng.make 1) in
  let xa, _ = Rng.int a 1000000 and xb, _ = Rng.int b 1000000 in
  check_bool "split streams differ" true (xa <> xb)

(* --- Stats --- *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  check_int "max" 9 (Stats.max_int_list [ 3; 9; 1 ]);
  check_int "min" 1 (Stats.min_int_list [ 3; 9; 1 ]);
  check_int "sum" 13 (Stats.sum_int [ 3; 9; 1 ]);
  check_int "p50" 2 (Stats.percentile 50.0 [ 3; 1; 2 ]);
  check_int "p100" 3 (Stats.percentile 100.0 [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_table () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Stats.pp_table ppf ~header:[ "a"; "bb" ] [ [ "x"; "y" ]; [ "long"; "z" ] ];
  Format.pp_print_flush ppf ();
  check_bool "renders" true (String.length (Buffer.contents buf) > 0)

(* --- Partition --- *)

let test_partition_mirror () =
  let p = Partition.initial in
  let p = Partition.apply p (Execution.Fork 0) in
  Alcotest.(check (list int)) "child inherits group" [ 0; 0 ] (Partition.groups p);
  let p = Partition.regroup p [ 0; 1 ] in
  let p = Partition.apply p (Execution.Fork 1) in
  Alcotest.(check (list int)) "fork in group 1" [ 0; 1; 1 ] (Partition.groups p);
  check_bool "cross-group join forbidden" false
    (Partition.op_allowed p (Execution.Join (0, 1)));
  check_bool "intra-group join allowed" true
    (Partition.op_allowed p (Execution.Join (1, 2)));
  let p = Partition.apply p (Execution.Join (1, 2)) in
  Alcotest.(check (list int)) "join keeps group" [ 0; 1 ] (Partition.groups p)

let test_partition_helpers () =
  let p = Partition.of_groups [ 0; 1; 0; 2 ] in
  Alcotest.(check (list int)) "positions_in 0" [ 0; 2 ] (Partition.positions_in p 0);
  check_int "group_count" 3 (Partition.group_count p);
  Alcotest.(check (list int)) "merge_all" [ 0; 0; 0; 0 ]
    (Partition.groups (Partition.merge_all p));
  Alcotest.(check (list int)) "round_robin" [ 0; 1; 0; 1; 0 ]
    (Partition.round_robin ~groups:2 5);
  Alcotest.check_raises "regroup arity"
    (Invalid_argument "Partition.regroup: arity mismatch") (fun () ->
      ignore (Partition.regroup p [ 0 ]))

let test_partition_alignment () =
  (* group list stays as long as the frontier for any trace *)
  let ops = Workload.uniform ~seed:11 ~n_ops:60 () in
  let p =
    List.fold_left
      (fun p op ->
        let p = Partition.apply p op in
        p)
      Partition.initial ops
  in
  check_int "aligned size" (Execution.final_frontier_size ops) (Partition.size p)

(* --- Workload validity --- *)

let workload_cases =
  [
    ("uniform", Workload.uniform ~seed:3 ~n_ops:200 ());
    ("deep_fork", Workload.deep_fork ~depth:30 ());
    ("deep_fork no update", Workload.deep_fork ~update_between:false ~depth:30 ());
    ("sync_star", Workload.sync_star ~peers:5 ~rounds:6 ());
    ("sync_star multi-update", Workload.sync_star ~updates_per_round:3 ~peers:3 ~rounds:4 ());
    ("gossip", Workload.gossip ~seed:3 ~replicas:6 ~rounds:20 ());
    ("churn", Workload.churn ~seed:3 ~target:6 ~n_ops:200 ());
    ( "partitioned",
      Workload.partitioned ~seed:3 ~replicas:8 ~groups:2 ~phases:4
        ~syncs_per_phase:5 () );
  ]

let test_workloads_valid () =
  List.iter
    (fun (name, ops) ->
      check_bool (name ^ " valid") true (Execution.trace_valid ops);
      check_bool (name ^ " nonempty") true (ops <> []))
    workload_cases

let test_workloads_deterministic () =
  Alcotest.(check bool)
    "same seed, same trace" true
    (Workload.uniform ~seed:5 ~n_ops:100 () = Workload.uniform ~seed:5 ~n_ops:100 ());
  Alcotest.(check bool)
    "different seed, different trace" true
    (Workload.uniform ~seed:5 ~n_ops:100 () <> Workload.uniform ~seed:6 ~n_ops:100 ())

let test_sync_star_shape () =
  let ops = Workload.sync_star ~peers:3 ~rounds:2 () in
  (* 3 forks + 2 rounds * 3 peers * (1 update + join + fork) *)
  check_int "op count" (3 + (2 * 3 * 3)) (List.length ops);
  check_int "frontier stays peers+1" 4 (Execution.final_frontier_size ops)

let test_gossip_fixed_frontier () =
  let ops = Workload.gossip ~seed:1 ~replicas:5 ~rounds:10 () in
  check_int "frontier fixed" 5 (Execution.final_frontier_size ops)

let test_deep_fork_shape () =
  let ops = Workload.deep_fork ~depth:10 () in
  check_int "frontier grows" 11 (Execution.final_frontier_size ops)

let test_all_named () =
  List.iter
    (fun (name, ops) ->
      check_bool (name ^ " valid") true (Execution.trace_valid ops))
    (Workload.all_named ~n_ops:120)

let test_partitioned_respects_groups () =
  (* during partition phases the generated joins stay within label
     groups; verify by mirroring the label/group bookkeeping *)
  let groups = 2 in
  let ops =
    Workload.partitioned ~seed:5 ~replicas:6 ~groups ~phases:3
      ~syncs_per_phase:6 ()
  in
  (* labels mirror positions exactly as the generator builds them *)
  let labels = ref [ 0 ] and fresh = ref 1 in
  let apply op =
    match op with
    | Execution.Update _ -> ()
    | Execution.Fork i ->
        let l = List.nth !labels i in
        ignore l;
        labels :=
          List.concat
            (List.mapi
               (fun k x -> if k = i then [ x; !fresh ] else [ x ])
               !labels);
        incr fresh
    | Execution.Join (i, j) ->
        let li = List.nth !labels i in
        let lo = min i j in
        let kept = List.filteri (fun k _ -> k <> i && k <> j) !labels in
        let rec insert pos acc = function
          | rest when pos = lo -> List.rev_append acc (li :: rest)
          | [] -> List.rev (li :: acc)
          | x :: rest -> insert (pos + 1) (x :: acc) rest
        in
        labels := insert 0 [] kept
  in
  (* joins from syncs pair same-group labels during partition phases;
     heal phases may cross.  We conservatively check that the fraction of
     cross-group joins is positive only because heal phases exist, and
     that at least one intra-group join occurred. *)
  let intra = ref 0 and cross = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Execution.Join (i, j) ->
          let gi = List.nth !labels i mod groups
          and gj = List.nth !labels j mod groups in
          if gi = gj then incr intra else incr cross
      | _ -> ());
      apply op)
    ops;
  check_bool "intra-group joins happen" true (!intra > 0)

(* --- Trackers and System --- *)

let test_tracker_names () =
  let names = List.map Tracker.name Tracker.all in
  check_bool "distinct names" true
    (List.length names = List.length (List.sort_uniq compare names));
  check_bool "stamps present" true (List.mem "stamps" names);
  Alcotest.(check (list string))
    "sweep order"
    [
      "stamps";
      "stamps-noreduce";
      "stamps-list";
      "stamps-packed";
      "causal-histories";
      "version-vectors";
      "dynamic-vv";
      "plausible-4";
      "plausible-8";
    ]
    names;
  Alcotest.(check (list string))
    "one tracker per keyed backend"
    (List.map Tracker.stamp_tracker_name (Backend.keys ()))
    (List.map Tracker.name (Tracker.of_registry ()))

(* stamps_nonreducing is deliberately absent: without Section 6
   reduction id widths compound across syncs (each join sums them, each
   fork copies them), which is exponential on sync-heavy workloads — the
   very pathology reduction removes.  It gets its own small-trace test. *)
let exact_trackers =
  [
    Tracker.stamps;
    Tracker.stamps_list;
    Tracker.stamps_packed;
    Tracker.version_vectors;
    Tracker.dynamic_vv;
    Tracker.histories;
  ]

let test_exact_trackers_accurate () =
  List.iter
    (fun (wname, ops) ->
      List.iter
        (fun t ->
          let r = System.run t ops in
          match r.System.accuracy with
          | None -> Alcotest.fail "oracle expected"
          | Some a ->
              check_bool
                (Printf.sprintf "%s on %s exact" r.System.tracker wname)
                true (System.perfect a))
        exact_trackers)
    workload_cases

let test_plausible_one_sided () =
  (* plausible clocks may invent orderings but never lose one *)
  List.iter
    (fun (wname, ops) ->
      List.iter
        (fun size ->
          let r = System.run (Tracker.plausible size) ops in
          match r.System.accuracy with
          | None -> Alcotest.fail "oracle expected"
          | Some a ->
              check_int
                (Printf.sprintf "plausible-%d on %s never misses" size wname)
                0 a.System.missed_orderings)
        [ 2; 4; 8 ])
    workload_cases

let test_plausible_actually_errs () =
  (* with one slot, two concurrent updates fold onto the same counter and
     the truly-concurrent pair looks equal *)
  let ops = [ Execution.Fork 0; Update 0; Update 1 ] in
  let r = System.run (Tracker.plausible 1) ops in
  match r.System.accuracy with
  | Some a -> check_bool "spurious orderings exist" true (a.System.spurious_orderings > 0)
  | None -> Alcotest.fail "oracle expected"

let test_system_counts () =
  let ops = [ Execution.Update 0; Fork 0; Join (0, 1); Fork 0; Update 1 ] in
  let r = System.run Tracker.stamps ops in
  check_int "ops" 5 r.System.ops;
  check_int "updates" 2 r.System.updates;
  check_int "forks" 2 r.System.forks;
  check_int "joins" 1 r.System.joins;
  check_int "frontier" 2 r.System.final.System.frontier

(* every applied op lands in exactly one sim_op_ns histogram *)
let test_system_op_histograms () =
  let registry = Vstamp_obs.Registry.create () in
  let ops = Workload.churn ~seed:3 ~target:6 ~n_ops:80 () in
  ignore (System.run ~registry Tracker.stamps ops : System.result);
  let observed =
    List.fold_left
      (fun acc (name, m) ->
        match m with
        | Vstamp_obs.Registry.Histogram h
          when String.starts_with ~prefix:"sim_op_ns{" name ->
            acc + Vstamp_obs.Metric.observations h
        | _ -> acc)
      0
      (Vstamp_obs.Registry.snapshot registry)
  in
  check_bool "trace not empty" true (ops <> []);
  check_int "one observation per op" (List.length ops) observed

let test_system_no_oracle () =
  let r = System.run ~with_oracle:false Tracker.stamps [ Execution.Fork 0 ] in
  check_bool "no accuracy" true (r.System.accuracy = None)

let test_run_all () =
  let rs = System.run_all Tracker.all (Workload.uniform ~seed:2 ~n_ops:30 ~max_frontier:6 ()) in
  check_int "one result per tracker" (List.length Tracker.all) (List.length rs);
  List.iter
    (fun r ->
      check_bool "rows render" true (List.length (System.to_row r) = List.length System.header))
    rs

let test_nonreducing_exact_small () =
  let ops = Workload.uniform ~seed:4 ~n_ops:40 ~max_frontier:6 () in
  match (System.run Tracker.stamps_nonreducing ops).System.accuracy with
  | Some a -> check_bool "non-reducing exact on small trace" true (System.perfect a)
  | None -> Alcotest.fail "oracle expected"

(* Reduction fires when the frontier narrows (the paper: "a join
   decreases the number of elements in a frontier, leading to smaller
   identities"), not during steady-state syncs which preserve it. *)
let test_reduction_collapses_merges () =
  let grow = Workload.deep_fork ~depth:6 () in
  let merge = List.init 6 (fun _ -> Execution.Join (0, 1)) in
  let ops = grow @ merge in
  let red = System.run ~with_oracle:false Tracker.stamps ops in
  let raw = System.run ~with_oracle:false Tracker.stamps_nonreducing ops in
  check_int "full merge collapses to the seed" 0
    red.System.final.System.total_bits;
  check_bool "non-reducing keeps the debris" true
    (raw.System.final.System.total_bits > 0);
  match Execution.Run_stamps.run ops with
  | [ s ] -> check_bool "merged stamp is the seed" true (Stamp.equal s Stamp.seed)
  | _ -> Alcotest.fail "single survivor expected"

let test_reduction_smaller_under_churn () =
  let ops = Workload.churn ~seed:3 ~target:5 ~n_ops:120 () in
  let red = System.run ~with_oracle:false Tracker.stamps ops in
  let raw = System.run ~with_oracle:false Tracker.stamps_nonreducing ops in
  check_bool "reduction shrinks churn frontiers" true
    (red.System.final.System.total_bits < raw.System.final.System.total_bits)

(* --- Scenarios: the paper's figures --- *)

let test_fig1 () =
  let f = Scenario.Fig1.run () in
  check_bool "matches the paper" true (Scenario.Fig1.matches_paper f);
  check_int "three timelines" 3 (List.length f.Scenario.Fig1.timeline)

let test_fig1_relations () =
  let f = Scenario.Fig1.run () in
  List.iter
    (fun (x, y, r) ->
      match (x, y) with
      | "B", "C" ->
          Alcotest.(check string) "B equivalent C" "equal" (Relation.to_string r)
      | _ ->
          Alcotest.(check string)
            (x ^ " inconsistent " ^ y)
            "concurrent" (Relation.to_string r))
    f.Scenario.Fig1.relations

let test_fig4 () =
  let f = Scenario.Fig4.run () in
  check_bool "matches the paper" true (Scenario.Fig4.matches_paper f);
  check_int "reduction chain length" 3 (List.length f.Scenario.Fig4.g_reduction_chain);
  check_bool "trace is the figure's trace" true
    (Execution.trace_valid Scenario.Fig4.trace);
  List.iter
    (fun (x, y, r) ->
      match (x, y) with
      | "d1", "e1" ->
          Alcotest.(check string) "d1 ~ e1" "equal" (Relation.to_string r)
      | "d1", _ ->
          Alcotest.(check string) ("d1 obsolete vs " ^ y) "dominated"
            (Relation.to_string r)
      | _ -> ())
    (Scenario.Fig4.frontier_queries f)

let test_fig3 () =
  let f = Scenario.Fig3.run () in
  check_bool "fork/join encoding induces the vv order" true
    (Scenario.Fig3.encodings_agree f)

let test_frontier_sizes () =
  Alcotest.(check (list int))
    "figure 2 frontier evolution"
    [ 1; 1; 2; 3; 3; 3; 2; 1 ]
    (Scenario.Frontiers.frontier_sizes ())

(* --- property: accuracy of exact trackers on random traces --- *)

let prop_exact_on_random =
  QCheck2.Test.make ~name:"stamps/vv/dvv exact on random traces" ~count:100
    ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun t ->
          match (System.run t ops).System.accuracy with
          | Some a -> System.perfect a
          | None -> false)
        [ Tracker.stamps; Tracker.version_vectors; Tracker.dynamic_vv ])

let prop_plausible_one_sided =
  QCheck2.Test.make ~name:"plausible clocks never miss an ordering"
    ~count:100 ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun size ->
          match (System.run (Tracker.plausible size) ops).System.accuracy with
          | Some a -> a.System.missed_orderings = 0
          | None -> false)
        [ 1; 3; 5 ])

(* --- Weather --- *)

let test_weather_deterministic () =
  let w = Weather.make ~seed:7 ~epoch:4 ~severity:0.8 () in
  let w' = Weather.make ~seed:7 ~epoch:4 ~severity:0.8 () in
  for step = 0 to 20 do
    Alcotest.(check (array int))
      "same seed same grouping"
      (Weather.groups_at w ~step ~n:5)
      (Weather.groups_at w' ~step ~n:5)
  done;
  (* groupings are constant within an epoch *)
  Alcotest.(check (array int))
    "epoch-stable"
    (Weather.groups_at w ~step:0 ~n:5)
    (Weather.groups_at w ~step:3 ~n:5)

let test_weather_severity_extremes () =
  let calm = Weather.make ~severity:0. () in
  for step = 0 to 30 do
    check_int "severity 0 fully connected" 1
      (Weather.group_count calm ~step ~n:6);
    check_bool "any pair allowed" true (Weather.allowed calm ~step ~n:6 0 5)
  done;
  let storm = Weather.make ~seed:3 ~epoch:2 ~severity:1.0 () in
  let fragmented = ref false in
  for step = 0 to 30 do
    check_bool "reflexive under any weather" true
      (Weather.allowed storm ~step ~n:6 2 2);
    if Weather.group_count storm ~step ~n:6 > 1 then fragmented := true
  done;
  check_bool "severity 1 fragments" true !fragmented

let test_weather_validation () =
  Alcotest.check_raises "severity out of range"
    (Invalid_argument "Weather.make: severity must be in [0, 1]") (fun () ->
      ignore (Weather.make ~severity:1.5 ()));
  Alcotest.check_raises "bad epoch"
    (Invalid_argument "Weather.make: epoch must be >= 1") (fun () ->
      ignore (Weather.make ~epoch:0 ~severity:0.5 ()))

(* --- Lag scenario --- *)

let lag_cfg =
  { Lag.default_config with Lag.severity = 0.8; rounds = 10; seed = 42 }

let test_lag_converges () =
  let r = Lag.run lag_cfg Tracker.stamps in
  check_bool "converged after heal" true r.Lag.converged;
  check_bool "convergence measured" true (r.Lag.convergence <> None);
  check_bool "final matrix all-equal" true
    (Vstamp_obs.Convergence.converged r.Lag.final);
  check_int "frontier size" 3 r.Lag.replicas;
  check_bool "weather blocked some syncs" true (r.Lag.blocked_syncs > 0);
  check_bool "divergence was observed" true (r.Lag.peak_width > 1)

let test_lag_deterministic () =
  let strip r = { r with Lag.convergence = None } in
  let a = strip (Lag.run lag_cfg Tracker.stamps) in
  let b = strip (Lag.run lag_cfg Tracker.stamps) in
  check_bool "identical modulo wall clock" true (a = b);
  let c = strip (Lag.run { lag_cfg with Lag.seed = 43 } Tracker.stamps) in
  check_bool "seed matters" true (a <> c)

let test_lag_delta_ledger () =
  let r = Lag.run lag_cfg Tracker.stamps in
  check_bool "ships something" true (r.Lag.shipped_bytes > 0);
  check_bool "minimal never exceeds shipped" true
    (r.Lag.minimal_bytes <= r.Lag.shipped_bytes);
  check_int "redundant = shipped - minimal"
    (r.Lag.shipped_bytes - r.Lag.minimal_bytes)
    r.Lag.redundant_bytes;
  check_bool "efficiency in (0, 1]" true
    (r.Lag.delta_efficiency > 0. && r.Lag.delta_efficiency <= 1.)

let test_lag_vv_agrees () =
  (* the same weather drives both mechanisms to the same oracle view *)
  let a = Lag.run lag_cfg Tracker.stamps in
  let b = Lag.run lag_cfg Tracker.version_vectors in
  check_bool "vv converges too" true b.Lag.converged;
  check_int "same update schedule" a.Lag.updates b.Lag.updates;
  check_int "same peak lag (oracle-side)" a.Lag.peak_lag b.Lag.peak_lag

let test_lag_publishes () =
  let registry = Vstamp_obs.Registry.create () in
  let rounds = ref 0 in
  let r =
    Lag.run ~registry ~on_round:(fun _ -> incr rounds) lag_cfg Tracker.stamps
  in
  check_bool "on_round fired per observation" true
    (!rounds >= lag_cfg.Lag.rounds);
  let snap = Vstamp_obs.Registry.snapshot registry in
  let mem name = List.mem_assoc name snap in
  check_bool "replica lag gauge" true (mem "vstamp_replica_lag{replica=\"0\"}");
  check_bool "pairs gauge" true
    (mem "vstamp_divergence_pairs{kind=\"concurrent\"}");
  check_bool "width gauge" true (mem "vstamp_frontier_width");
  check_bool "shipped counter" true (mem "sim_sync_shipped_bytes_total");
  let count name =
    match List.assoc name snap with
    | Vstamp_obs.Registry.Counter c -> Vstamp_obs.Metric.count c
    | _ -> Alcotest.failf "%s is not a counter" name
  in
  check_int "published totals match the result"
    r.Lag.shipped_bytes
    (count "sim_sync_shipped_bytes_total");
  check_int "published minimal matches"
    r.Lag.minimal_bytes
    (count "sim_sync_minimal_bytes_total")

let test_lag_validation () =
  Alcotest.check_raises "needs 2 replicas"
    (Invalid_argument "Lag.run: need at least 2 replicas") (fun () ->
      ignore (Lag.run { lag_cfg with Lag.replicas = 1 } Tracker.stamps))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
          Alcotest.test_case "split" `Quick test_rng_split;
        ] );
      ( "stats",
        [
          Alcotest.test_case "aggregates" `Quick test_stats;
          Alcotest.test_case "table" `Quick test_stats_table;
        ] );
      ( "partition",
        [
          Alcotest.test_case "mirror" `Quick test_partition_mirror;
          Alcotest.test_case "helpers" `Quick test_partition_helpers;
          Alcotest.test_case "alignment" `Quick test_partition_alignment;
        ] );
      ( "workload",
        [
          Alcotest.test_case "all valid" `Quick test_workloads_valid;
          Alcotest.test_case "deterministic" `Quick test_workloads_deterministic;
          Alcotest.test_case "sync_star shape" `Quick test_sync_star_shape;
          Alcotest.test_case "gossip fixed frontier" `Quick
            test_gossip_fixed_frontier;
          Alcotest.test_case "deep_fork shape" `Quick test_deep_fork_shape;
          Alcotest.test_case "all_named" `Quick test_all_named;
          Alcotest.test_case "partitioned groups" `Quick
            test_partitioned_respects_groups;
        ] );
      ( "system",
        [
          Alcotest.test_case "tracker names" `Quick test_tracker_names;
          Alcotest.test_case "exact trackers accurate" `Quick
            test_exact_trackers_accurate;
          Alcotest.test_case "plausible one-sided" `Quick
            test_plausible_one_sided;
          Alcotest.test_case "plausible errs" `Quick test_plausible_actually_errs;
          Alcotest.test_case "non-reducing exact (small)" `Quick
            test_nonreducing_exact_small;
          Alcotest.test_case "op counts" `Quick test_system_counts;
          Alcotest.test_case "op latency histograms" `Quick
            test_system_op_histograms;
          Alcotest.test_case "without oracle" `Quick test_system_no_oracle;
          Alcotest.test_case "run_all" `Quick test_run_all;
          Alcotest.test_case "reduction collapses merges" `Quick
            test_reduction_collapses_merges;
          Alcotest.test_case "reduction shrinks churn" `Quick
            test_reduction_smaller_under_churn;
        ] );
      ( "paper figures",
        [
          Alcotest.test_case "figure 1" `Quick test_fig1;
          Alcotest.test_case "figure 1 relations" `Quick test_fig1_relations;
          Alcotest.test_case "figure 4" `Quick test_fig4;
          Alcotest.test_case "figure 3" `Quick test_fig3;
          Alcotest.test_case "frontier sizes" `Quick test_frontier_sizes;
        ] );
      ( "weather",
        [
          Alcotest.test_case "deterministic epochs" `Quick
            test_weather_deterministic;
          Alcotest.test_case "severity extremes" `Quick
            test_weather_severity_extremes;
          Alcotest.test_case "validation" `Quick test_weather_validation;
        ] );
      ( "lag",
        [
          Alcotest.test_case "diverges then converges" `Quick
            test_lag_converges;
          Alcotest.test_case "deterministic" `Quick test_lag_deterministic;
          Alcotest.test_case "delta ledger" `Quick test_lag_delta_ledger;
          Alcotest.test_case "vv under the same weather" `Quick
            test_lag_vv_agrees;
          Alcotest.test_case "publication" `Quick test_lag_publishes;
          Alcotest.test_case "validation" `Quick test_lag_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exact_on_random; prop_plausible_one_sided ] );
    ]
