(* Benchmark and experiment harness.

   Regenerates every figure of the paper (F1-F4) and runs the
   quantitative experiments the paper's claims imply (E1-E8), as indexed
   in DESIGN.md; then runs the bechamel micro-benchmarks for operation
   latency (E3).  Everything is deterministic except wall-clock
   latencies.  Results are recorded in EXPERIMENTS.md.

   Usage: main.exe [--quick] [--out FILE] [--history FILE]

   --quick shrinks the iteration budgets and skips the prose-only
   experiments (E2b, E4-E10) so the JSON-producing lane finishes in
   seconds — the mode scripts/bench_smoke.sh gates on.  The effective
   knobs are recorded in the JSON's "config" block, and `vstamp bench
   diff` refuses to compare runs whose configs differ. *)

open Vstamp_core
open Vstamp_vv
open Vstamp_sim

type opts = { quick : bool; out : string; history : string }

let parse_argv () =
  let quick = ref false
  and out = ref "BENCH_core.json"
  and history = ref "BENCH_history.jsonl" in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--out" :: file :: rest ->
        out := file;
        go rest
    | "--history" :: file :: rest ->
        history := file;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\nusage: main.exe [--quick] [--out FILE] \
           [--history FILE]\n"
          arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  { quick = !quick; out = !out; history = !history }

(* Every knob that changes what the numbers mean is dumped into the
   JSON's "config" block, so the regression gate can refuse to compare
   apples to oranges (see Vstamp_obs.Bench_store).  The knobs --quick
   changes are [bench_config]'s fields; the rest are constants. *)
let e11_every_n = 100

let e14_replicas = 4

let e14_severities = [ 0.2; 0.5; 1.0 ]

let e17_replicas = 4

let e18_nodes = 3

let e18_round_budget = 16

type bench_config = {
  quick : bool;
  e1_scales : int list;
  latency_quota_s : float;
  latency_limit : int;
  e11_uniform_ops : int;
  e11_deep_fork_depth : int;
  e11_churn_ops : int;
  best_of : int;  (* timed runs per lane in E11, E15 and E16 *)
  e14_rounds : int;
  e15_series : int;
  e15_ticks : int;
  e16_spans : int;
  e17_rounds : int;
  e17_rates : float list;
  e18_keys : int;
  e18_value_bytes : int;
}

let bench_config ~quick =
  if quick then
    {
      quick;
      e1_scales = [ 50; 100 ];
      latency_quota_s = 0.1;
      latency_limit = 1000;
      e11_uniform_ops = 100;
      e11_deep_fork_depth = 40;
      e11_churn_ops = 60;
      best_of = 1;
      e14_rounds = 8;
      e15_series = 64;
      e15_ticks = 200;
      e16_spans = 2000;
      e17_rounds = 10;
      e17_rates = [ 0.5; 1.0; 2.0 ];
      e18_keys = 8;
      e18_value_bytes = 160;
    }
  else
    {
      quick;
      e1_scales = [ 50; 100; 200; 400 ];
      latency_quota_s = 0.25;
      latency_limit = 2000;
      e11_uniform_ops = 400;
      e11_deep_fork_depth = 100;
      e11_churn_ops = 200;
      best_of = 3;
      e14_rounds = 20;
      e15_series = 256;
      e15_ticks = 2000;
      e16_spans = 20000;
      e17_rounds = 24;
      e17_rates = [ 0.5; 1.0; 2.0; 4.0 ];
      e18_keys = 24;
      e18_value_bytes = 128;
    }

let config_json c =
  let open Vstamp_obs in
  Jsonx.Obj
    [
      ("quick", Jsonx.Bool c.quick);
      ("e1_scales", Jsonx.List (List.map (fun n -> Jsonx.Int n) c.e1_scales));
      ("latency_quota_s", Jsonx.Float c.latency_quota_s);
      ("latency_limit", Jsonx.Int c.latency_limit);
      ("e11_uniform_ops", Jsonx.Int c.e11_uniform_ops);
      ("e11_deep_fork_depth", Jsonx.Int c.e11_deep_fork_depth);
      ("e11_churn_ops", Jsonx.Int c.e11_churn_ops);
      ("e11_every_n", Jsonx.Int e11_every_n);
      ("e11_best_of", Jsonx.Int c.best_of);
      ("e14_replicas", Jsonx.Int e14_replicas);
      ("e14_rounds", Jsonx.Int c.e14_rounds);
      ( "e14_severities",
        Jsonx.List (List.map (fun s -> Jsonx.Float s) e14_severities) );
      ("e15_series", Jsonx.Int c.e15_series);
      ("e15_ticks", Jsonx.Int c.e15_ticks);
      ("e15_best_of", Jsonx.Int c.best_of);
      ("e16_spans", Jsonx.Int c.e16_spans);
      ("e16_best_of", Jsonx.Int c.best_of);
      ("e17_replicas", Jsonx.Int e17_replicas);
      ("e17_rounds", Jsonx.Int c.e17_rounds);
      ( "e17_rates",
        Jsonx.List (List.map (fun r -> Jsonx.Float r) c.e17_rates) );
      ("e18_nodes", Jsonx.Int e18_nodes);
      ("e18_keys", Jsonx.Int c.e18_keys);
      ("e18_value_bytes", Jsonx.Int c.e18_value_bytes);
      ("e18_round_budget", Jsonx.Int e18_round_budget);
      ( "backends",
        Jsonx.List
          (List.map (fun k -> Jsonx.String k) (Vstamp_core.Backend.keys ())) );
    ]

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* Wall-clock seconds of the fastest of [cfg.best_of] runs of [f], so a
   stray scheduler hiccup cannot dominate a lane. *)
let best_of ~cfg f =
  let rec go k best =
    if k = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      go (k - 1) (min best (Unix.gettimeofday () -. t0))
    end
  in
  go (max 1 cfg.best_of) infinity

let table = Stats.pp_table Format.std_formatter

(* ITC as a tracker (lives here because vstamp.sim does not depend on
   vstamp.itc). *)
module Itc_tracker = struct
  type t = Vstamp_itc.Itc.t

  type state = unit

  let name = "itc"

  let initial = ((), Vstamp_itc.Itc.seed)

  let update () x = ((), Vstamp_itc.Itc.update x)

  let fork () x = ((), Vstamp_itc.Itc.fork x)

  let join () a b = ((), Vstamp_itc.Itc.join a b)

  let leq = Vstamp_itc.Itc.leq

  let size_bits = Vstamp_itc.Itc.size_bits

  let invariants _ = []

  let pp = Vstamp_itc.Itc.pp
end

let itc_tracker = Tracker.Packed (module Itc_tracker)

(* ------------------------------------------------------------------ *)
(* F1-F4: the paper's figures                                          *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "F1: Figure 1 - version vectors among three fixed replicas";
  let f = Scenario.Fig1.run () in
  table ~header:[ "replica"; "final vector"; "paper" ]
    (List.map2
       (fun (name, v) (_, expected) ->
         [
           name;
           Version_vector.to_string v;
           "[" ^ String.concat "," (List.map string_of_int expected) ^ "]";
         ])
       f.Scenario.Fig1.final Scenario.Fig1.expected_final);
  List.iter
    (fun (x, y, r) ->
      Format.printf "  %s vs %s: %s@." x y (Relation.to_paper_string r))
    f.Scenario.Fig1.relations;
  Format.printf "  reproduces the paper: %b@." (Scenario.Fig1.matches_paper f)

let fig2_4 () =
  section "F2+F4: Figures 2 and 4 - fork/join evolution and its stamps";
  let f = Scenario.Fig4.run () in
  table ~header:[ "element"; "stamp" ]
    (List.map
       (fun (n, s) -> [ n; Stamp.to_string s ])
       f.Scenario.Fig4.named_steps);
  Format.printf "  rewrite chain: %s@."
    (String.concat " -> "
       (List.map Stamp.to_string f.Scenario.Fig4.g_reduction_chain));
  Format.printf "  frontier sizes along the run: %s@."
    (String.concat "->"
       (List.map string_of_int (Scenario.Frontiers.frontier_sizes ())));
  Format.printf "  reproduces the paper: %b@." (Scenario.Fig4.matches_paper f)

let fig3 () =
  section "F3: Figure 3 - fixed replicas encoded under fork-and-join";
  let f = Scenario.Fig3.run () in
  table ~header:[ "pair"; "stamps say"; "vectors say" ]
    (List.map2
       (fun (x, y, rs) (_, _, rv) ->
         [
           x ^ " vs " ^ y;
           Relation.to_paper_string rs;
           Relation.to_paper_string rv;
         ])
       f.Scenario.Fig3.stamp_relations f.Scenario.Fig3.vv_relations);
  Format.printf "  encodings agree: %b@." (Scenario.Fig3.encodings_agree f)

(* ------------------------------------------------------------------ *)
(* E1: size growth across workloads and scales                         *)
(* ------------------------------------------------------------------ *)

let e1_trackers =
  [
    Tracker.stamps;
    Tracker.stamps_packed;
    Tracker.version_vectors;
    Tracker.dynamic_vv;
    itc_tracker;
    Tracker.histories;
  ]

let e1 ~scales () =
  section "E1: tracking-data size (bits/replica, mean/p95) by workload and scale";
  let workload_families =
    [
      ("uniform", fun n -> Workload.uniform ~seed:7 ~n_ops:n ());
      ("deep-fork", fun n -> Workload.deep_fork ~depth:(n / 2) ());
      (* sustained star sync compounds id widths exponentially in the
         number of rounds (see EXPERIMENTS.md), so its scale axis is
         rounds over 4 peers, kept in the tractable range *)
      ( "sync-star",
        fun n -> Workload.sync_star ~peers:4 ~rounds:(max 1 (n / 64)) () );
      ( "gossip",
        fun n -> Workload.gossip ~seed:7 ~replicas:8 ~rounds:(max 1 (n / 10)) () );
      ("churn", fun n -> Workload.churn ~seed:7 ~target:8 ~n_ops:n ());
    ]
  in
  let json_rows = ref [] in
  List.iter
    (fun (wname, mk) ->
      Format.printf "@.workload: %s@." wname;
      let header =
        "tracker" :: List.map (fun n -> Printf.sprintf "n=%d" n) scales
      in
      let rows =
        List.map
          (fun t ->
            Tracker.name t
            :: List.map
                 (fun n ->
                   let r = System.run ~with_oracle:false t (mk n) in
                   let f = r.System.final in
                   json_rows :=
                     Vstamp_obs.Jsonx.Obj
                       [
                         ("workload", Vstamp_obs.Jsonx.String wname);
                         ("n", Vstamp_obs.Jsonx.Int n);
                         ("tracker", Vstamp_obs.Jsonx.String r.System.tracker);
                         ("mean_bits", Vstamp_obs.Jsonx.Float f.System.mean_bits);
                         ("p50_bits", Vstamp_obs.Jsonx.Float f.System.p50_bits);
                         ("p95_bits", Vstamp_obs.Jsonx.Float f.System.p95_bits);
                         ("p99_bits", Vstamp_obs.Jsonx.Float f.System.p99_bits);
                         ("max_bits", Vstamp_obs.Jsonx.Int f.System.max_bits);
                         ("peak_bits", Vstamp_obs.Jsonx.Int r.System.peak_bits);
                       ]
                     :: !json_rows;
                   Printf.sprintf "%.0f/%.0f" f.System.mean_bits
                     f.System.p95_bits)
                 scales)
          e1_trackers
      in
      table ~header rows)
    workload_families;
  Format.printf "  (cells: mean/p95 bits per replica on the final frontier)@.";
  Vstamp_obs.Jsonx.List (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E2: reduction efficacy                                              *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: Section 6 reduction - reduced vs non-reducing stamp sizes";
  let cases =
    [
      ( "fork-storm then full merge",
        Workload.deep_fork ~depth:8 ()
        @ List.init 8 (fun _ -> Execution.Join (0, 1)) );
      ("churn (target 5, 120 ops)", Workload.churn ~seed:3 ~target:5 ~n_ops:120 ());
      (* non-reducing widths double per pair sync: 12 rounds = 4096-wide
         ids, already a 2^12 blowup the reduced model keeps at width 1 *)
      ("repeated pair sync x12", Workload.gossip ~seed:3 ~replicas:2 ~rounds:12 ());
      ("uniform small", Workload.uniform ~seed:3 ~n_ops:60 ~max_frontier:5 ());
    ]
  in
  let json_rows = ref [] in
  table
    ~header:
      [ "trace"; "reduced bits"; "p95"; "non-reducing bits"; "p95"; "ratio" ]
    (List.map
       (fun (name, ops) ->
         let reduced =
           (System.run ~with_oracle:false Tracker.stamps ops).System.final
         in
         let raw =
           (System.run ~with_oracle:false Tracker.stamps_nonreducing ops)
             .System.final
         in
         let red = reduced.System.total_bits
         and rawb = raw.System.total_bits in
         let ratio =
           if red = 0 then 0.0 else float_of_int rawb /. float_of_int red
         in
         json_rows :=
           Vstamp_obs.Jsonx.Obj
             [
               ("trace", Vstamp_obs.Jsonx.String name);
               ("reduced_bits", Vstamp_obs.Jsonx.Int red);
               ("reduced_p95_bits", Vstamp_obs.Jsonx.Float reduced.System.p95_bits);
               ("raw_bits", Vstamp_obs.Jsonx.Int rawb);
               ("raw_p95_bits", Vstamp_obs.Jsonx.Float raw.System.p95_bits);
               ("ratio", Vstamp_obs.Jsonx.Float ratio);
             ]
           :: !json_rows;
         [
           name;
           string_of_int red;
           Printf.sprintf "%.0f" reduced.System.p95_bits;
           string_of_int rawb;
           Printf.sprintf "%.0f" raw.System.p95_bits;
           (if red = 0 then "inf" else Printf.sprintf "%.1fx" ratio);
         ])
       cases);
  Vstamp_obs.Jsonx.List (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E4: ordering accuracy against the causal-history oracle             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: ordering accuracy vs the causal-history oracle";
  let ops = Workload.uniform ~seed:11 ~n_ops:300 () in
  let trackers =
    [
      Tracker.stamps;
      Tracker.stamps_list;
      Tracker.version_vectors;
      Tracker.dynamic_vv;
      itc_tracker;
      Tracker.plausible 2;
      Tracker.plausible 4;
      Tracker.plausible 8;
    ]
  in
  table
    ~header:[ "tracker"; "comparisons"; "spurious"; "missed" ]
    (List.map
       (fun t ->
         let r = System.run t ops in
         match r.System.accuracy with
         | Some a ->
             [
               r.System.tracker;
               string_of_int a.System.comparisons;
               string_of_int a.System.spurious_orderings;
               string_of_int a.System.missed_orderings;
             ]
         | None -> [ r.System.tracker; "-"; "-"; "-" ])
       trackers)

(* ------------------------------------------------------------------ *)
(* E5: plausible-clock accuracy sweep                                  *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: plausible clocks - misclassification rate by slot count";
  let ops = Workload.gossip ~seed:5 ~replicas:10 ~rounds:12 () in
  table
    ~header:[ "slots"; "size bits"; "comparisons"; "spurious"; "error %" ]
    (List.map
       (fun slots ->
         let r = System.run (Tracker.plausible slots) ops in
         match r.System.accuracy with
         | Some a ->
             [
               string_of_int slots;
               Printf.sprintf "%.0f" r.System.final.System.mean_bits;
               string_of_int a.System.comparisons;
               string_of_int a.System.spurious_orderings;
               Printf.sprintf "%.1f"
                 (100.0
                 *. float_of_int a.System.spurious_orderings
                 /. float_of_int (max 1 a.System.comparisons));
             ]
         | None -> assert false)
       [ 1; 2; 4; 8; 16; 32 ])

(* ------------------------------------------------------------------ *)
(* E6: replica creation under partition                                *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: replica creation under partition (the motivating scenario)";
  (* n devices in the cut-off group each try to spawn a replica *)
  let attempts = 40 in
  let server = Id_source.make (Id_source.Partitioned { server_group = 0 }) in
  let blocked = ref 0 and src = ref server in
  for _ = 1 to attempts do
    match Id_source.alloc ~group:1 !src with
    | Ok (_, s) -> src := s
    | Error (`Unavailable, s) ->
        incr blocked;
        src := s
  done;
  (* random ids at various widths: collision counts for the same burst *)
  let collisions bits =
    let src = ref (Id_source.make (Id_source.Random { bits })) in
    for _ = 1 to attempts do
      match Id_source.alloc ~group:1 !src with
      | Ok (_, s) -> src := s
      | Error _ -> assert false
    done;
    Id_source.collisions !src
  in
  (* version stamps: the same burst is just forks *)
  let rec forks k s acc =
    if k = 0 then acc
    else
      let l, r = Stamp.fork s in
      forks (k - 1) l (r :: acc)
  in
  let spawned = forks attempts Stamp.seed [] in
  table
    ~header:[ "mechanism"; "created"; "blocked"; "silent collisions" ]
    [
      [
        "version vectors (served ids)";
        string_of_int (attempts - !blocked);
        string_of_int !blocked;
        "0";
      ];
      [
        "version vectors (random 8-bit ids)";
        string_of_int attempts;
        "0";
        string_of_int (collisions 8);
      ];
      [
        "version vectors (random 16-bit ids)";
        string_of_int attempts;
        "0";
        string_of_int (collisions 16);
      ];
      [ "version stamps (fork)"; string_of_int (List.length spawned); "0"; "0" ];
    ]

(* ------------------------------------------------------------------ *)
(* E7: wire sizes of the codec                                         *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: wire encoding size (bits, whole final frontier)";
  let cases =
    [
      ("uniform n=200", Workload.uniform ~seed:7 ~n_ops:200 ());
      ("deep-fork n=100", Workload.deep_fork ~depth:50 ());
      ("sync-star 4x6", Workload.sync_star ~peers:4 ~rounds:6 ());
      ("churn n=150", Workload.churn ~seed:7 ~target:6 ~n_ops:150 ());
    ]
  in
  table
    ~header:[ "trace"; "stamps (wire)"; "stamps (struct)"; "vv (wire)" ]
    (List.map
       (fun (name, ops) ->
         let stamps = Execution.Run_stamps.run ops in
         let wire =
           Stats.sum_int (List.map Vstamp_codec.Wire.stamp_bits stamps)
         in
         let structural = Stats.sum_int (List.map Stamp.size_bits stamps) in
         (* replay over version vectors *)
         let module R = Execution.Run (struct
           type t = Version_vector.Replica.t

           type state = int

           let initial = (1, Version_vector.Replica.create ~id:0)

           let update next r = (next, Version_vector.Replica.update r)

           let fork next r =
             let child = Version_vector.Replica.create ~id:next in
             let r', child' = Version_vector.Replica.sync r child in
             (next + 1, (r', child'))

           let join next a b = (next, fst (Version_vector.Replica.sync a b))
         end) in
         let vvs = R.run ops in
         let vv_wire =
           Stats.sum_int
             (List.map
                (fun r ->
                  Vstamp_codec.Wire.vv_bits (Version_vector.Replica.vector r))
                vvs)
         in
         [ name; string_of_int wire; string_of_int structural; string_of_int vv_wire ])
       cases)

(* ------------------------------------------------------------------ *)
(* E8: version stamps vs interval tree clocks                          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: version stamps vs interval tree clocks (mean bits/replica)";
  let cases =
    [
      ("uniform n=300", Workload.uniform ~seed:7 ~n_ops:300 ());
      ("deep-fork n=150", Workload.deep_fork ~depth:75 ());
      ("sync-star 8x4", Workload.sync_star ~peers:8 ~rounds:4 ());
      ("gossip 8x15", Workload.gossip ~seed:7 ~replicas:8 ~rounds:15 ());
      ("churn n=250", Workload.churn ~seed:7 ~target:8 ~n_ops:250 ());
    ]
  in
  table
    ~header:[ "trace"; "stamps"; "itc"; "itc exact?" ]
    (List.map
       (fun (name, ops) ->
         let s = System.run ~with_oracle:false Tracker.stamps ops in
         let i = System.run itc_tracker ops in
         [
           name;
           Printf.sprintf "%.0f" s.System.final.System.mean_bits;
           Printf.sprintf "%.0f" i.System.final.System.mean_bits;
           (match i.System.accuracy with
           | Some a -> string_of_bool (System.perfect a)
           | None -> "-");
         ])
       cases)

(* ------------------------------------------------------------------ *)
(* E9: stamp size as a function of frontier narrowing                  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9: stamp size vs how often the frontier narrows back";
  (* fixed op budget; sweep the fraction of joins relative to forks by
     reweighting the uniform generator.  More narrowing (joins) means
     more sibling reunification and smaller stamps. *)
  let sweeps =
    [
      ("fork-heavy  (u3 f4 j1)", Workload.{ update = 3; fork = 4; join = 1 });
      ("balanced    (u3 f2 j2)", Workload.{ update = 3; fork = 2; join = 2 });
      ("join-heavy  (u3 f1 j4)", Workload.{ update = 3; fork = 1; join = 4 });
    ]
  in
  table
    ~header:[ "op mix"; "stamps mean bits"; "itc mean bits"; "vv mean bits" ]
    (List.map
       (fun (label, weights) ->
         let ops =
           Workload.uniform ~seed:13 ~weights ~max_frontier:10 ~n_ops:300 ()
         in
         let cell t =
           Printf.sprintf "%.0f"
             (System.run ~with_oracle:false t ops).System.final.System.mean_bits
         in
         [ label; cell Tracker.stamps; cell itc_tracker; cell Tracker.version_vectors ])
       sweeps)

(* ------------------------------------------------------------------ *)
(* E10: server-side vs autonomous tracking for the same value          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section
    "E10: metadata per replica - dotted vv (server ids) vs stamps (autonomous)";
  (* the same logical workload on one value: [n] replicas, each round one
     random replica writes, then one random pair reconciles *)
  let replicas = 4 in
  let rows =
    List.map
      (fun rounds ->
        let rng = ref (Rng.make 23) in
        let draw bound =
          let x, r = Rng.int !rng bound in
          rng := r;
          x
        in
        (* dotted vv side: fixed server ids *)
        let servers =
          Array.init replicas (fun i ->
              Vstamp_kvs.Kv_node.create ~id:i)
        in
        (* stamp side: registers forked from one seed *)
        let regs = Array.make replicas (Vstamp_crdt.Mv_register.create "v0") in
        let rec fan i reg =
          if i < replicas - 1 then begin
            let a, b = Vstamp_crdt.Mv_register.fork reg in
            regs.(i) <- a;
            fan (i + 1) b
          end
          else regs.(i) <- reg
        in
        fan 0 regs.(0);
        for k = 1 to rounds do
          let w = draw replicas in
          let _, ctx = Vstamp_kvs.Kv_node.get servers.(w) "k" in
          servers.(w) <-
            Vstamp_kvs.Kv_node.put servers.(w) ~key:"k" ~context:ctx
              (Printf.sprintf "v%d" k);
          regs.(w) <- Vstamp_crdt.Mv_register.write regs.(w) (Printf.sprintf "v%d" k);
          let i = draw replicas in
          let j0 = draw (replicas - 1) in
          let j = if j0 >= i then j0 + 1 else j0 in
          let a, b = Vstamp_kvs.Kv_node.anti_entropy servers.(i) servers.(j) in
          servers.(i) <- a;
          servers.(j) <- b;
          let ra, rb = Vstamp_crdt.Mv_register.sync regs.(i) regs.(j) in
          regs.(i) <- ra;
          regs.(j) <- rb
        done;
        let dvv_bits =
          Stats.mean_int
            (Array.to_list (Array.map Vstamp_kvs.Kv_node.size_bits servers))
        in
        let stamp_bits =
          Stats.mean_int
            (Array.to_list
               (Array.map
                  (fun r -> Stamp.size_bits (Vstamp_crdt.Mv_register.stamp r))
                  regs))
        in
        [
          string_of_int rounds;
          Printf.sprintf "%.0f" dvv_bits;
          Printf.sprintf "%.0f" stamp_bits;
        ])
      [ 5; 10; 20; 30 ]
  in
  table ~header:[ "rounds"; "dotted vv bits"; "stamp bits" ] rows;
  Format.printf
    "  (dotted vv needs deployment-time server ids and stays counter-flat;@.";
  Format.printf
    "   stamps need nothing and pay in id fragmentation under gossip)@."

(* ------------------------------------------------------------------ *)
(* E3: operation latency (bechamel)                                    *)
(* ------------------------------------------------------------------ *)

(* a stamp with a fragmented id, representative of a busy replica *)
let make_deep_stamp (type s) (module B : Backend.S with type Stamp.t = s)
    depth : s =
  let rec go s k =
    if k = 0 then s
    else
      let a, b = B.Stamp.fork (B.Stamp.update s) in
      go (B.Stamp.join ~reduce:false (B.Stamp.update a) b) (k - 1)
  in
  go B.Stamp.seed depth

(* The serve path's store work at the size of perfbench's
   [mesh-rewrite]: 640 keys of 32 B.  [node/put] is one [Node.put] into
   a node holding them; [kvs/reconcile] is one responder reconcile of
   the 640-entry frontier a writer offers after rewriting an 8-key
   window, 2 keys of it rewritten concurrently by the responder.
   [kvs/offer] is the writer building that frontier, [kvs/wants] the
   responder answering it, and [proto/decode offer] the responder
   reading the [Offer] message that carries it.  Returns the lanes and
   the node's stop. *)
let serve_cases () =
  let keys = Array.init 640 (Printf.sprintf "k%04d") in
  let values = Array.map (fun k -> Printf.sprintf "%-32s" k) keys in
  let module N = Vstamp_net.Node.Make (Backend.Over_tree) in
  let node =
    N.create ~registry:(Vstamp_obs.Registry.create ()) ~node_id:"bench-put"
      ~backend:Backend.default_key ~port:0 ~peers:[] ()
  in
  Array.iteri (fun k key -> N.put node ~key values.(k)) keys;
  let next = ref 0 in
  let module KV = Vstamp_kvs.Stamped_kv in
  let full =
    Array.fold_left (fun s key -> KV.put s ~key "preload") KV.empty keys
  in
  let a, b = KV.sync full KV.empty in
  let window = List.init 8 (fun w -> keys.(320 + w)) in
  let a = List.fold_left (fun s key -> KV.put s ~key "rewrite") a window in
  let b =
    List.fold_left (fun s key -> KV.put s ~key "conflict") b
      [ keys.(321); keys.(326) ]
  in
  let frontier = KV.offer a in
  let items = KV.fulfil a (KV.wants b frontier) in
  let offer_msg =
    Vstamp_net.Proto.encode
      (Offer
         ( "",
           List.map
             (fun (k, st, d) -> (k, Vstamp_codec.Wire.stamp_to_string st, d))
             frontier ))
  in
  ( [
      ( "ops",
        "node/put k640",
        fun () ->
          next := (!next + 1) mod 640;
          N.put node ~key:keys.(!next) values.(!next) );
      ( "ops",
        "kvs/reconcile k640",
        fun () -> ignore (KV.reconcile b frontier items) );
      ("ops", "kvs/offer k640", fun () -> ignore (KV.offer a));
      ("ops", "kvs/wants k640", fun () -> ignore (KV.wants b frontier));
      ( "ops",
        "proto/decode offer k640",
        fun () -> ignore (Vstamp_net.Proto.decode offer_msg) );
    ],
    fun () -> N.stop node )

(* Latency cases as plain (group, name, thunk) triples; names reproduce
   the historical bechamel keys ("ops/stamp/join d8",
   "ablation/tree/join:12") so BENCH_history.jsonl stays comparable
   across the restructuring. *)
let latency_cases () =
  let stamp8 = make_deep_stamp (module Backend.Over_tree) 8
  and stamp16 = make_deep_stamp (module Backend.Over_tree) 16 in
  let other8 = snd (Stamp.fork stamp8) in
  let other16 = snd (Stamp.fork stamp16) in
  let vv =
    List.fold_left
      (fun v i -> Version_vector.increment v i)
      Version_vector.zero
      (List.init 16 (fun i -> i mod 8))
  in
  let itc8 =
    let rec go s k =
      if k = 0 then s
      else
        let a, b = Vstamp_itc.Itc.fork (Vstamp_itc.Itc.update s) in
        go (Vstamp_itc.Itc.join (Vstamp_itc.Itc.update a) b) (k - 1)
    in
    go Vstamp_itc.Itc.seed 8
  in
  let wire8 = Vstamp_codec.Wire.stamp_to_string stamp8 in
  [
    ("ops", "stamp/update d8", fun () -> ignore (Stamp.update stamp8));
    ("ops", "stamp/fork d8", fun () -> ignore (Stamp.fork stamp8));
    ("ops", "stamp/join d8", fun () -> ignore (Stamp.join stamp8 other8));
    ("ops", "stamp/reduce d8", fun () -> ignore (Stamp.reduce stamp8));
    ("ops", "stamp/leq d8", fun () -> ignore (Stamp.leq stamp8 other8));
    ("ops", "stamp/leq d16", fun () -> ignore (Stamp.leq stamp16 other16));
    ("ops", "vv/increment w8", fun () -> ignore (Version_vector.increment vv 3));
    ("ops", "vv/merge w8", fun () -> ignore (Version_vector.merge vv vv));
    ("ops", "vv/leq w8", fun () -> ignore (Version_vector.leq vv vv));
    ("ops", "itc/update d8", fun () -> ignore (Vstamp_itc.Itc.update itc8));
    ("ops", "itc/leq d8", fun () -> ignore (Vstamp_itc.Itc.leq itc8 itc8));
    ( "ops",
      "wire/encode d8",
      fun () -> ignore (Vstamp_codec.Wire.stamp_to_string stamp8) );
    ( "ops",
      "wire/decode d8",
      fun () -> ignore (Vstamp_codec.Wire.stamp_of_string wire8) );
  ]

(* ablation A: representation choice (one lane set per registered
   backend) as id fragmentation deepens; the depth sweep makes the
   scaling shape visible, not just one point.  The packed lanes
   deliberately benchmark the steady state — interning and memo tables
   warm — since that is how a long-lived replica runs; the first-call
   cost is the tree lane's. *)
let ablation_cases () =
  let depths = [ 2; 4; 8; 12 ] in
  List.concat_map
    (fun d ->
      List.concat_map
        (fun (e : Backend.entry) ->
          let module B = (val e.impl) in
          let s = make_deep_stamp (module B) d in
          let o = snd (B.Stamp.fork s) in
          let case op fn =
            ("ablation", Printf.sprintf "%s/%s:%d" e.key op d, fn)
          in
          [
            case "leq" (fun () -> ignore (B.Stamp.leq s o));
            case "join" (fun () -> ignore (B.Stamp.join s o));
            case "reduce" (fun () -> ignore (B.Stamp.reduce s));
          ])
        (Backend.entries ()))
    depths

(* ablation B: eager reduction at join vs deferring it to a single final
   normalization — measures what keeping normal form continuously
   costs/saves on a frontier-narrowing trace *)
let e2b () =
  section "E2b: ablation - eager vs deferred reduction (churn trace)";
  let ops = Workload.churn ~seed:9 ~target:6 ~n_ops:150 () in
  let eager = Execution.Run_stamps.run ops in
  let deferred =
    List.map Stamp.reduce (Execution.Run_stamps_nonreducing.run ops)
  in
  let bits f = Stats.sum_int (List.map Stamp.size_bits f) in
  table
    ~header:[ "strategy"; "final frontier bits"; "peak frontier bits" ]
    [
      [
        "reduce at every join";
        string_of_int (bits eager);
        string_of_int
          (Stats.max_int_list
             (List.map bits (Execution.Run_stamps.run_steps ops)));
      ];
      [
        "reduce once at the end";
        string_of_int (bits deferred);
        string_of_int
          (Stats.max_int_list
             (List.map bits (Execution.Run_stamps_nonreducing.run_steps ops)));
      ];
    ];
  let orders_agree =
    List.for_all
      (fun (a, a') ->
        List.for_all
          (fun (b, b') ->
            Vstamp_core.Relation.equal (Stamp.relation a b) (Stamp.relation a' b'))
          (List.combine eager deferred))
      (List.combine eager deferred)
  in
  Format.printf
    "  (the stamps differ structurally — reduction changes what later@.";
  Format.printf
    "   forks append to — but the frontier order is identical: %b)@."
    orders_agree

(* ------------------------------------------------------------------ *)
(* E11: what observability costs at runtime                            *)
(* ------------------------------------------------------------------ *)

(* Wall-clock throughput of the same run plain, with the I1-I3 runtime
   monitors evaluating the whole frontier after every step, with the
   same monitors sampled 1-in-N, and with the causal-trace recorder
   labelling every state.  Best of [cfg.best_of] runs. *)
let e11 ~cfg () =
  section
    "E11: observability overhead (ops/s: plain, full monitors, sampled, \
     +recording)";
  (* effective coverage read back from the gauge of a separate untimed
     run with a private registry, so the gauge bookkeeping never sits
     inside the timed lane *)
  let coverage_of ~sampling ops =
    let registry = Vstamp_obs.Registry.create () in
    ignore
      (System.run ~with_oracle:false ~registry ~check_invariants:true ~sampling
         Tracker.stamps ops
        : System.result);
    match
      Vstamp_obs.Registry.find registry
        "vstamp_monitor_coverage{monitor=\"stamps\"}"
    with
    | Some (Vstamp_obs.Registry.Gauge g) -> Vstamp_obs.Metric.value g
    | _ -> nan
  in
  (* op counts are deliberately modest: I2/I3 are quadratic in frontier
     width and linear in name size, so a wide frontier (deep-fork) or
     fragmented ids (churn, see E1) make the monitored column measure
     blow-up rather than the monitor *)
  let workloads =
    [
      ("uniform", Workload.uniform ~seed:7 ~n_ops:cfg.e11_uniform_ops ());
      ("deep-fork", Workload.deep_fork ~depth:cfg.e11_deep_fork_depth ());
      ("churn", Workload.churn ~seed:7 ~target:8 ~n_ops:cfg.e11_churn_ops ());
    ]
  in
  let sampling = Vstamp_obs.Monitor.Every_n e11_every_n in
  let rows, payload =
    List.split
      (List.map
         (fun (wname, ops) ->
           let n = List.length ops in
           let run ?check_invariants ?sampling ?trace () =
             ignore
               (System.run ~with_oracle:false ?check_invariants ?sampling
                  ?trace Tracker.stamps ops
                 : System.result)
           in
           let throughput f = float_of_int n /. best_of ~cfg f in
           let plain = throughput (fun () -> run ()) in
           (* same workload over the hash-consed backend, unmonitored:
              how much of the monitorable budget the representation
              itself buys back *)
           let packed_plain =
             throughput (fun () ->
                 ignore
                   (System.run ~with_oracle:false Tracker.stamps_packed ops
                     : System.result))
           in
           let monitored = throughput (fun () -> run ~check_invariants:true ()) in
           let sampled =
             throughput (fun () -> run ~check_invariants:true ~sampling ())
           in
           let recording =
             throughput (fun () ->
                 run ~trace:(Vstamp_obs.Causal_trace.create ()) ())
           in
           let coverage = coverage_of ~sampling ops in
           ( [
               wname;
               string_of_int n;
               Printf.sprintf "%.2e" plain;
               Printf.sprintf "%.2e" packed_plain;
               Printf.sprintf "%.2e" monitored;
               Printf.sprintf "%.2e" sampled;
               Printf.sprintf "%.2e" recording;
               Printf.sprintf "%.1fx" (plain /. monitored);
               Printf.sprintf "%.1fx" (plain /. sampled);
             ],
             ( wname,
               Vstamp_obs.Jsonx.Obj
                 [
                   ("ops", Vstamp_obs.Jsonx.Int n);
                   ("plain_ops_per_s", Vstamp_obs.Jsonx.Float plain);
                   ("packed_plain_ops_per_s", Vstamp_obs.Jsonx.Float packed_plain);
                   ("monitored_ops_per_s", Vstamp_obs.Jsonx.Float monitored);
                   ("sampled_ops_per_s", Vstamp_obs.Jsonx.Float sampled);
                   ("recording_ops_per_s", Vstamp_obs.Jsonx.Float recording);
                   ( "monitor_slowdown",
                     Vstamp_obs.Jsonx.Float (plain /. monitored) );
                   ("sampled_slowdown", Vstamp_obs.Jsonx.Float (plain /. sampled));
                   ("sampled_coverage", Vstamp_obs.Jsonx.Float coverage);
                   ("every_n", Vstamp_obs.Jsonx.Int e11_every_n);
                 ] ) ))
         workloads)
  in
  table
    ~header:
      [
        "workload";
        "ops";
        "plain ops/s";
        "packed";
        "full mon";
        Printf.sprintf "1-in-%d" e11_every_n;
        "+recording";
        "full cost";
        "sampled cost";
      ]
    rows;
  (* E13's curve: how the overhead and coverage trade off as the
     sampling period stretches, on the workload where full monitoring
     hurts most *)
  let churn = Workload.churn ~seed:7 ~target:8 ~n_ops:cfg.e11_churn_ops () in
  let n = List.length churn in
  let plain =
    float_of_int n
    /. best_of ~cfg (fun () ->
           ignore
             (System.run ~with_oracle:false Tracker.stamps churn
               : System.result))
  in
  Format.printf "@.sampling sweep (churn): slowdown vs coverage by period@.";
  let sweep =
    List.map
      (fun every_n ->
        let sampling = Vstamp_obs.Monitor.Every_n every_n in
        let sampled =
          float_of_int n
          /. best_of ~cfg (fun () ->
                 ignore
                   (System.run ~with_oracle:false ~check_invariants:true
                      ~sampling Tracker.stamps churn
                     : System.result))
        in
        let coverage = coverage_of ~sampling churn in
        Format.printf "  every_n=%-5d %8.2e ops/s  %5.1fx slowdown  %5.1f%% \
                       coverage@."
          every_n sampled (plain /. sampled) (100.0 *. coverage);
        Vstamp_obs.Jsonx.Obj
          [
            ("every_n", Vstamp_obs.Jsonx.Int every_n);
            ("ops_per_s", Vstamp_obs.Jsonx.Float sampled);
            ("slowdown", Vstamp_obs.Jsonx.Float (plain /. sampled));
            ("coverage", Vstamp_obs.Jsonx.Float coverage);
          ])
      [ 1; 10; 100; 1000 ]
  in
  (Vstamp_obs.Jsonx.Obj payload, Vstamp_obs.Jsonx.List sweep)

let e3 ~cfg () =
  section "E3: operation latency (bechamel, ns/op)";
  let open Bechamel in
  let serve, stop_serve = serve_cases () in
  let cases = latency_cases () @ serve @ ablation_cases () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let bcfg =
    Benchmark.cfg ~limit:cfg.latency_limit
      ~quota:(Time.second cfg.latency_quota_s)
      ~kde:None ()
  in
  let groups = List.sort_uniq compare (List.map (fun (g, _, _) -> g) cases) in
  let raw = Hashtbl.create 64 in
  Fun.protect ~finally:stop_serve (fun () ->
      List.iter
        (fun g ->
          let tests =
            List.filter_map
              (fun (g', name, fn) ->
                if g' = g then Some (Test.make ~name (Staged.stage fn))
                else None)
              cases
          in
          Hashtbl.iter
            (fun k v -> Hashtbl.replace raw k v)
            (Benchmark.all bcfg [ instance ]
               (Test.make_grouped ~name:g tests)))
        groups);
  let results = Analyze.all ols instance raw in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> (name, e) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  table
    ~header:[ "operation"; "ns/op" ]
    (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ]) estimates);
  Vstamp_obs.Jsonx.Obj
    (List.map (fun (name, ns) -> (name, Vstamp_obs.Jsonx.Float ns)) estimates)

(* ------------------------------------------------------------------ *)

let read_first_line path =
  try
    let ic = open_in path in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    line
  with Sys_error _ -> None

(* Resolve HEAD to a commit hash with plain file IO so the bench binary
   stays usable without a git executable on PATH. *)
let git_rev () =
  let root = ".git" in
  match read_first_line (Filename.concat root "HEAD") with
  | None -> "unknown"
  | Some head -> (
      let prefix = "ref: " in
      if String.length head > String.length prefix
         && String.sub head 0 (String.length prefix) = prefix
      then
        let refname =
          String.sub head (String.length prefix)
            (String.length head - String.length prefix)
        in
        match read_first_line (Filename.concat root refname) with
        | Some hash -> hash
        | None -> (
            (* the ref may only exist in packed-refs *)
            match
              read_first_line (Filename.concat root "packed-refs")
            with
            | None -> "unknown"
            | Some _ -> (
                let ic = open_in (Filename.concat root "packed-refs") in
                let found = ref "unknown" in
                (try
                   while true do
                     let line = input_line ic in
                     match String.index_opt line ' ' with
                     | Some i
                       when String.sub line (i + 1)
                              (String.length line - i - 1)
                            = refname ->
                         found := String.sub line 0 i;
                         raise Exit
                     | _ -> ()
                   done
                 with End_of_file | Exit -> ());
                close_in ic;
                !found))
      else head)

let core_counters () =
  let open Vstamp_core in
  Instr.reset ();
  let was_enabled = !Instr.enabled in
  Instr.enabled := true;
  let ops = Workload.uniform ~seed:7 ~n_ops:400 () in
  let frontier = Execution.Run_stamps.run ops in
  List.iter
    (fun s -> ignore (Vstamp_codec.Wire.stamp_to_string s))
    frontier;
  Instr.enabled := was_enabled;
  let fields = Vstamp_sim.Telemetry.counter_fields () in
  Instr.reset ();
  Vstamp_obs.Jsonx.Obj
    (List.map (fun (k, v) -> (k, Vstamp_obs.Jsonx.Int v)) fields)

(* ------------------------------------------------------------------ *)
(* E14: divergence and convergence time vs partition severity          *)
(* ------------------------------------------------------------------ *)

(* Stamps vs version vectors under partition weather: the Lag scenario
   (writes plus weather-filtered syncs, then quiescence and gossip
   sweeps) at several severities, measuring how far the replicas drift
   (peak/mean oracle lag, frontier width), how many sync steps bring
   them back to global dominance, and what fraction of the shipped
   bytes a frontier-exchange protocol would have needed
   (delta_efficiency).  Deterministic in the seed except for the
   wall-clock convergence_ns column, which is informational and not
   extracted by the regression gate. *)
let e14_trackers = [ Tracker.stamps; Tracker.version_vectors ]

let e14 ~cfg () =
  section
    "E14: divergence / convergence time vs partition severity (stamps vs vv)";
  let rows =
    List.concat_map
      (fun severity ->
        List.map
          (fun tracker ->
            let lag_cfg =
              {
                Lag.replicas = e14_replicas;
                rounds = cfg.e14_rounds;
                p_update = 0.5;
                syncs_per_round = 2;
                severity;
                seed = 7;
                epoch = 4;
                max_heal_rounds = 16;
              }
            in
            (severity, Tracker.name tracker, Lag.run lag_cfg tracker))
          e14_trackers)
      e14_severities
  in
  table
    ~header:
      [
        "severity";
        "tracker";
        "peak lag";
        "mean lag";
        "width";
        "conv steps";
        "heal rounds";
        "shipped B";
        "redundant B";
        "efficiency";
      ]
    (List.map
       (fun (severity, name, (r : Lag.result)) ->
         [
           Printf.sprintf "%.1f" severity;
           name;
           string_of_int r.Lag.peak_lag;
           Printf.sprintf "%.2f" r.Lag.mean_lag;
           string_of_int r.Lag.peak_width;
           (match r.Lag.convergence with
           | Some (_, steps) -> string_of_int steps
           | None -> "-");
           string_of_int r.Lag.heal_rounds;
           string_of_int r.Lag.shipped_bytes;
           string_of_int r.Lag.redundant_bytes;
           Printf.sprintf "%.3f" r.Lag.delta_efficiency;
         ])
       rows);
  Vstamp_obs.Jsonx.List
    (List.map
       (fun (severity, name, (r : Lag.result)) ->
         let open Vstamp_obs in
         Jsonx.Obj
           [
             ("severity", Jsonx.Float severity);
             ("tracker", Jsonx.String name);
             ("replicas", Jsonx.Int r.Lag.replicas);
             ("converged", Jsonx.Bool r.Lag.converged);
             ( "convergence_steps",
               match r.Lag.convergence with
               | Some (_, steps) -> Jsonx.Int steps
               | None -> Jsonx.Null );
             ( "convergence_ns",
               match r.Lag.convergence with
               | Some (ns, _) -> Jsonx.Float (Int64.to_float ns)
               | None -> Jsonx.Null );
             ("heal_rounds", Jsonx.Int r.Lag.heal_rounds);
             ("peak_lag", Jsonx.Int r.Lag.peak_lag);
             ("mean_lag", Jsonx.Float r.Lag.mean_lag);
             ("peak_width", Jsonx.Int r.Lag.peak_width);
             ("peak_entropy", Jsonx.Float r.Lag.peak_entropy);
             ("shipped_bytes", Jsonx.Int r.Lag.shipped_bytes);
             ("minimal_bytes", Jsonx.Int r.Lag.minimal_bytes);
             ("redundant_bytes", Jsonx.Int r.Lag.redundant_bytes);
             ("sync_delta_efficiency", Jsonx.Float r.Lag.delta_efficiency);
           ])
       rows)

(* E15: the flight recorder's duty cycle.  One recorder tick is a GC
   sample, an alert-engine evaluation and a Tsdb snapshot of a
   soak-shaped registry; the soak driver runs one per --record-every.
   Reported as ns/tick (best of [cfg.best_of] batches of
   [cfg.e15_ticks]) and as the percentage of a 1 s and a 100 ms cadence
   that cost represents, plus the recorder's fixed ring footprint. *)
let e15 ~cfg () =
  section "E15: flight recorder overhead (tick cost vs cadence)";
  let open Vstamp_obs in
  let registry = Registry.create () in
  (* a live-soak-shaped registry: a mix of counters, gauges and
     histograms across [cfg.e15_series] distinct names *)
  let counters =
    Array.init cfg.e15_series (fun i ->
        Registry.counter registry (Printf.sprintf "bench_e15_ctr_%03d" i))
  in
  Array.iteri (fun i c -> Metric.add c (i * 17)) counters;
  for i = 0 to (cfg.e15_series / 2) - 1 do
    Metric.set
      (Registry.gauge registry (Printf.sprintf "bench_e15_gauge_%03d" i))
      (float_of_int i)
  done;
  for i = 0 to (cfg.e15_series / 4) - 1 do
    let h = Registry.histogram registry (Printf.sprintf "bench_e15_hist_%03d" i) in
    for v = 1 to 16 do
      Metric.observe_int h (v * (i + 1))
    done
  done;
  let rules =
    match
      Alert.parse_rules
        "hot bench_e15_ctr_000 > 1e12\n\
         fast rate(bench_e15_ctr_001) > 1e12\n\
         gone absent(bench_e15_ctr_002)\n\
         broken invariant_violation\n"
    with
    | Ok rs -> rs
    | Error m -> failwith ("E15 rules: " ^ m)
  in
  let runtime = Runtime.create ~registry () in
  let alerts = Alert.create ~registry rules in
  let tsdb = Tsdb.create () in
  let now = ref 0.0 in
  let tick () =
    now := !now +. 1.0;
    (* a little registry churn so counter deltas are non-trivial *)
    Metric.inc counters.(0);
    Metric.add counters.(1) 3;
    Runtime.sample ~now_s:!now runtime;
    Alert.eval ~now_s:!now alerts;
    Tsdb.sample tsdb ~now_s:!now registry
  in
  (* first tick registers every series in the recorder *)
  tick ();
  let best =
    best_of ~cfg (fun () ->
        for _ = 1 to cfg.e15_ticks do
          tick ()
        done)
  in
  let tick_ns = best /. float_of_int cfg.e15_ticks *. 1e9 in
  let pct_of cadence_s = 100.0 *. tick_ns /. (cadence_s *. 1e9) in
  let overhead_pct_1s = pct_of 1.0 in
  let overhead_pct_100ms = pct_of 0.1 in
  let footprint = Tsdb.footprint_bytes tsdb in
  table
    ~header:
      [ "series"; "ticks"; "ns/tick"; "@1s"; "@100ms"; "ring footprint" ]
    [
      [
        string_of_int (List.length (Tsdb.names tsdb));
        string_of_int cfg.e15_ticks;
        Printf.sprintf "%.0f" tick_ns;
        Printf.sprintf "%.3f%%" overhead_pct_1s;
        Printf.sprintf "%.2f%%" overhead_pct_100ms;
        Printf.sprintf "%dB" footprint;
      ];
    ]
    ;
  Jsonx.Obj
    [
      ("series", Jsonx.Int (List.length (Tsdb.names tsdb)));
      ("ticks", Jsonx.Int cfg.e15_ticks);
      ("tick_ns", Jsonx.Float tick_ns);
      ("overhead_pct_1s", Jsonx.Float overhead_pct_1s);
      ("overhead_pct_100ms", Jsonx.Float overhead_pct_100ms);
      ("footprint_bytes", Jsonx.Int footprint);
      ("points_retained", Jsonx.Int (Tsdb.points_retained tsdb));
    ]

(* E16: distributed-tracing overhead.  What context propagation costs
   the sync layers: the per-call cost of recording a span (attached,
   with a throwaway sink) against the detached no-op path every
   uninstrumented run takes, the remote continuation (header parse +
   child span), and the fixed wire overhead — the header bytes a sync
   envelope carries and the JSONL record one span adds to a node's
   log. *)
let e16 ~cfg () =
  section "E16: trace propagation overhead (span cost, wire bytes)";
  let open Vstamp_obs in
  let n = cfg.e16_spans in
  let spans body =
    best_of ~cfg (fun () ->
        for i = 1 to n do
          Trace_ctx.with_span "bench.span"
            ~attrs:[ ("i", Jsonx.Int i) ]
            body
        done)
  in
  Trace_ctx.set_id_seed 0x5eed;
  let sink_count = ref 0 in
  Trace_ctx.attach ~sink:(fun _ -> incr sink_count) ~node:"bench" ();
  let header =
    match Trace_ctx.current () with
    | Some c -> Trace_ctx.to_header c
    | None -> ""
  in
  let attached_s = spans (fun () -> ()) in
  let remote_s =
    best_of ~cfg (fun () ->
        for _ = 1 to n do
          Trace_ctx.with_remote_span ~header "bench.apply" (fun () -> ())
        done)
  in
  (* one representative record, shaped like the soak's sync spans *)
  let recorded = ref [] in
  Trace_ctx.detach ();
  Trace_ctx.attach ~sink:(fun sp -> recorded := sp :: !recorded) ~node:"bench" ();
  Trace_ctx.with_span "sync.session" ~stamp:"[1|0]" ~domain:"cluster"
    ~attrs:[ ("files", Jsonx.Int 5); ("conflicts", Jsonx.Int 0) ]
    (fun () -> ());
  Trace_ctx.detach ();
  let span_json_bytes =
    match !recorded with
    | sp :: _ -> String.length (Trace_ctx.span_to_string sp)
    | [] -> 0
  in
  (* the same instrumented call sites with no tracer attached: the
     price every un-traced run pays *)
  let detached_s = spans (fun () -> ()) in
  let per s = s /. float_of_int n *. 1e9 in
  table
    ~header:
      [ "spans"; "with_span ns"; "detached ns"; "remote ns"; "header B";
        "record B" ]
    [
      [
        string_of_int n;
        Printf.sprintf "%.0f" (per attached_s);
        Printf.sprintf "%.1f" (per detached_s);
        Printf.sprintf "%.0f" (per remote_s);
        string_of_int (String.length header);
        string_of_int span_json_bytes;
      ];
    ];
  Jsonx.Obj
    [
      ("spans", Jsonx.Int n);
      ("with_span_ns", Jsonx.Float (per attached_s));
      ("detached_ns", Jsonx.Float (per detached_s));
      ("remote_span_ns", Jsonx.Float (per remote_s));
      ("header_bytes", Jsonx.Int (String.length header));
      ("span_json_bytes", Jsonx.Int span_json_bytes);
    ]

(* E17: identity-space reclamation under replica churn.  One Churn.run
   per churn rate — high-rate autonomous fork, weather-gated retire —
   comparing the stamp lane's id-digit footprint (and what join/reduce
   reclaimed of the fork-added digits, against the oracle minimum for
   the final population) with the lockstep dynamic-VV lane's
   retired-entry baggage awaiting garbage collection.  The
   partition-of-unity audit must stay clean on every observed round;
   an unclean lane is a correctness bug, not a performance number. *)
let e17 ~cfg () =
  section "E17: id-space reclamation vs dynamic-VV baggage under churn";
  let rows =
    List.map
      (fun rate ->
        let ch_cfg =
          {
            Churn.replicas = e17_replicas;
            min_replicas = 2;
            max_replicas = 4 * e17_replicas;
            rounds = cfg.e17_rounds;
            p_update = 0.5;
            syncs_per_round = 2;
            churn_rate = rate;
            gc_every = 1;
            severity = 0.4;
            seed = 7;
            epoch = 4;
            inject_corruption = None;
          }
        in
        (rate, Churn.run ch_cfg))
      cfg.e17_rates
  in
  table
    ~header:
      [
        "rate";
        "forks";
        "retires";
        "pop";
        "id bits";
        "oracle";
        "reclaimed";
        "effect.";
        "entropy";
        "dvv entries";
        "retired";
        "gc dropped";
        "audit";
      ]
    (List.map
       (fun (rate, (r : Churn.result)) ->
         [
           Printf.sprintf "%.1f" rate;
           string_of_int r.Churn.forks;
           string_of_int r.Churn.retires;
           string_of_int r.Churn.final_replicas;
           string_of_int r.Churn.stamp_id_bits;
           string_of_int r.Churn.oracle_bits;
           string_of_int r.Churn.reclaimed_bits;
           Printf.sprintf "%.3f" r.Churn.reduce_effectiveness;
           Printf.sprintf "%.2f" r.Churn.entropy;
           string_of_int r.Churn.dvv_entries;
           string_of_int r.Churn.dvv_retired_entries;
           string_of_int r.Churn.dvv_gc_dropped;
           (if r.Churn.audit_clean then "clean" else "VIOLATED");
         ])
       rows);
  Vstamp_obs.Jsonx.List
    (List.map
       (fun (rate, (r : Churn.result)) ->
         let open Vstamp_obs in
         Jsonx.Obj
           [
             ("churn_rate", Jsonx.Float rate);
             ("rounds", Jsonx.Int r.Churn.rounds);
             ("forks", Jsonx.Int r.Churn.forks);
             ("retires", Jsonx.Int r.Churn.retires);
             ("blocked_retires", Jsonx.Int r.Churn.blocked_retires);
             ("peak_replicas", Jsonx.Int r.Churn.peak_replicas);
             ("final_replicas", Jsonx.Int r.Churn.final_replicas);
             ("stamp_id_bits", Jsonx.Int r.Churn.stamp_id_bits);
             ("stamp_id_width", Jsonx.Int r.Churn.stamp_id_width);
             ("stamp_max_depth", Jsonx.Int r.Churn.stamp_max_depth);
             ("stamp_size_bits", Jsonx.Int r.Churn.stamp_size_bits);
             ("reclaimed_bits", Jsonx.Int r.Churn.reclaimed_bits);
             ("fork_bits", Jsonx.Int r.Churn.fork_bits);
             ("oracle_bits", Jsonx.Int r.Churn.oracle_bits);
             ("entropy", Jsonx.Float r.Churn.entropy);
             ("oracle_entropy", Jsonx.Float r.Churn.oracle_entropy);
             ( "reduce_effectiveness",
               Jsonx.Float r.Churn.reduce_effectiveness );
             ("dvv_entries", Jsonx.Int r.Churn.dvv_entries);
             ("dvv_retired_entries", Jsonx.Int r.Churn.dvv_retired_entries);
             ( "dvv_peak_retired_entries",
               Jsonx.Int r.Churn.dvv_peak_retired_entries );
             ("dvv_size_bits", Jsonx.Int r.Churn.dvv_size_bits);
             ("dvv_gc_dropped", Jsonx.Int r.Churn.dvv_gc_dropped);
             ( "relation_mismatches",
               Jsonx.Int r.Churn.relation_mismatches );
             ("audit_clean", Jsonx.Bool r.Churn.audit_clean);
           ])
       rows)

(* E18: the networked anti-entropy plane measured end to end.  A
   3-node loopback-TCP cluster (Vstamp_net.Node speaking the real
   vstamp-sync/2 framed protocol) seeds disjoint keys per node and is
   driven by deterministic [sync_now] rounds until every store digest
   agrees.  Recorded: total bytes the sockets carried (frames,
   handshakes, frontiers, payloads — everything) against the engine
   ledger's minimal delta (the same minimal-frontier accounting the
   E14 lane gates on), as [overhead_ratio]; plus rounds to
   convergence.  The wall-clock convergence time is informational only
   and excluded from the regression gate.  Budget: wire bytes must
   stay within 2x of the minimal delta. *)
let e18 ~cfg () =
  section "E18: networked anti-entropy - wire bytes vs minimal delta";
  let module N = Vstamp_net.Node.Make (Vstamp_core.Backend.Over_tree) in
  let value node k =
    let tag = Printf.sprintf "e18/n%d/k%03d:" node k in
    let b = Buffer.create (cfg.e18_value_bytes + String.length tag) in
    while Buffer.length b < cfg.e18_value_bytes do
      Buffer.add_string b tag
    done;
    Buffer.sub b 0 cfg.e18_value_bytes
  in
  (* Cascade mesh: node i dials every node created before it, so the
     cluster is a full mesh over ephemeral loopback ports. *)
  let nodes =
    let rec go i acc =
      if i >= e18_nodes then List.rev acc
      else
        let registry = Vstamp_obs.Registry.create () in
        let peers = List.map (fun (_, _, n) -> ("127.0.0.1", N.port n)) acc in
        let node =
          N.create ~registry ~interval_s:60.0 ~idle_timeout_s:10.0
            ~node_id:(Printf.sprintf "bench-n%d" i)
            ~backend:Vstamp_core.Backend.default_key ~port:0 ~peers ()
        in
        go (i + 1) ((i, registry, node) :: acc)
    in
    go 0 []
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, _, n) -> N.stop n) nodes)
    (fun () ->
      List.iter
        (fun (i, _, n) ->
          for k = 0 to cfg.e18_keys - 1 do
            N.put n ~key:(Printf.sprintf "n%d-k%03d" i k) (value i k)
          done)
        nodes;
      let converged () =
        match List.map (fun (_, _, n) -> N.digest n) nodes with
        | [] -> true
        | d :: rest -> List.for_all (( = ) d) rest
      in
      let rounds = ref 0 in
      let t0 = Unix.gettimeofday () in
      while (not (converged ())) && !rounds < e18_round_budget do
        incr rounds;
        List.iter (fun (_, _, n) -> ignore (N.sync_now n)) nodes
      done;
      let convergence_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      let count r name =
        Vstamp_obs.Metric.count (Vstamp_obs.Registry.counter r name)
      in
      let total name =
        List.fold_left (fun acc (_, r, _) -> acc + count r name) 0 nodes
      in
      (* The responder threads count their bytes after their writes
         return, so they can lag the initiator's view of a completed
         session.  Wait for the totals to go quiescent and conserved
         (cluster-wide tx = rx: every byte sent was received and both
         ends counted it) so wire_bytes is the settled, deterministic
         figure. *)
      let totals () =
        (total "net_tx_bytes_total", total "net_rx_bytes_total")
      in
      let rec settle prev n =
        if n > 0 then begin
          Thread.delay 0.02;
          let cur = totals () in
          if not (cur = prev && fst cur = snd cur) then settle cur (n - 1)
        end
      in
      settle (totals ()) 100;
      let wire_bytes = total "net_tx_bytes_total" in
      let rx_bytes = total "net_rx_bytes_total" in
      let shipped = total "net_sync_shipped_bytes_total" in
      let minimal = total "net_sync_minimal_bytes_total" in
      let redundant = total "net_sync_redundant_bytes_total" in
      let proto_errors = total "net_protocol_errors_total" in
      let sessions = total "net_sync_rounds_total" in
      let overhead_ratio =
        float_of_int wire_bytes /. float_of_int (max 1 minimal)
      in
      let within_budget = overhead_ratio <= 2.0 in
      table
        ~header:[ "node"; "keys"; "tx bytes"; "rx bytes"; "sessions" ]
        (List.map
           (fun (i, r, n) ->
             [
               Printf.sprintf "n%d" i;
               string_of_int (List.length (N.keys n));
               string_of_int (count r "net_tx_bytes_total");
               string_of_int (count r "net_rx_bytes_total");
               string_of_int (count r "net_sync_rounds_total");
             ])
           nodes);
      Format.printf
        "  converged=%b rounds=%d sessions=%d wire=%dB minimal=%dB \
         overhead=%.2fx (budget <= 2.0x: %s)@."
        (converged ()) !rounds sessions wire_bytes minimal overhead_ratio
        (if within_budget then "ok" else "OVER BUDGET");
      let open Vstamp_obs in
      Jsonx.Obj
        [
          ("nodes", Jsonx.Int e18_nodes);
          ("keys_per_node", Jsonx.Int cfg.e18_keys);
          ("value_bytes", Jsonx.Int cfg.e18_value_bytes);
          ("converged", Jsonx.Bool (converged ()));
          ("rounds_to_convergence", Jsonx.Int !rounds);
          ("sessions", Jsonx.Int sessions);
          ("wire_bytes", Jsonx.Int wire_bytes);
          ("rx_bytes", Jsonx.Int rx_bytes);
          ("shipped_bytes", Jsonx.Int shipped);
          ("minimal_bytes", Jsonx.Int minimal);
          ("redundant_bytes", Jsonx.Int redundant);
          ("protocol_errors", Jsonx.Int proto_errors);
          ("overhead_ratio", Jsonx.Float overhead_ratio);
          ("within_budget", Jsonx.Bool within_budget);
          ("convergence_ns", Jsonx.Float convergence_ns);
        ])

(* /3 keeps every /2 field and adds the config and wall_clock blocks
   (Bench_store's comparability key and run metadata), the E11 sampled
   columns, the E13 sampling_sweep, and {"timed_out": true} markers for
   latency cases over the per-case budget (no longer written: the list
   lanes, the only ones over it, left E3).  /4 keeps every /3 field and
   adds the keyed backend set to the config block plus the
   packed-backend ablation lanes.  /5 keeps every /4 field and adds the
   E14 convergence block (divergence / time-to-convergence /
   sync-delta efficiency vs partition severity).  /6 keeps every /5
   field and adds the E15 recorder block (flight-recorder tick cost,
   cadence duty cycles, ring footprint).  /7 keeps every /6 field and
   adds the E16 trace block (span-record and remote-continuation
   costs, context-propagation wire bytes).  /8 keeps every /7 field and
   adds the E17 idspace block (id-digit reclamation vs dynamic-VV
   retired-entry baggage across churn rates, with the
   partition-of-unity audit verdict).  /9 keeps every /8 field and
   adds the E18 net block (bytes on the wire for a real 3-node TCP
   cluster against the engine ledger's minimal delta, with the
   2x overhead budget verdict). *)
let bench_json_schema = "vstamp-bench-core/9"

let write_bench_json ~opts ~cfg ~elapsed_s ~sizes ~reduction ~latencies
    ~monitor_overhead ~sampling_sweep ~convergence ~recorder ~trace ~idspace
    ~net =
  let open Vstamp_obs in
  let json =
    Jsonx.Obj
      [
        ("schema", Jsonx.String bench_json_schema);
        ("seed", Jsonx.Int 7);
        ("git_rev", Jsonx.String (git_rev ()));
        ("config", config_json cfg);
        ( "wall_clock",
          Jsonx.Obj
            [
              ("recorded_unix_s", Jsonx.Float (Unix.gettimeofday ()));
              ("elapsed_s", Jsonx.Float elapsed_s);
            ] );
        ("op_latency_ns", latencies);
        ("sizes", sizes);
        ("reduction", reduction);
        ("core_counters", core_counters ());
        ("monitor_overhead", monitor_overhead);
        ("sampling_sweep", sampling_sweep);
        ("convergence", convergence);
        ("recorder", recorder);
        ("trace", trace);
        ("idspace", idspace);
        ("net", net);
      ]
  in
  let oc = open_out opts.out in
  output_string oc (Jsonx.to_string json);
  output_char oc '\n';
  close_out oc;
  Bench_store.append ~file:opts.history json;
  Format.printf "@.wrote %s (schema %s); appended to %s@." opts.out
    bench_json_schema opts.history

let () =
  let opts = parse_argv () in
  let cfg = bench_config ~quick:opts.quick in
  Vstamp_obs.Clock.set_source Unix.gettimeofday;
  let t_start = Unix.gettimeofday () in
  Format.printf "Version Stamps - experiment harness%s@."
    (if cfg.quick then " (quick mode)" else "");
  Format.printf "(deterministic except E3/E11 wall-clock lanes; see \
                 EXPERIMENTS.md)@.";
  fig1 ();
  fig2_4 ();
  fig3 ();
  let sizes = e1 ~scales:cfg.e1_scales () in
  let reduction = e2 () in
  if not cfg.quick then e2b ();
  let latencies = e3 ~cfg () in
  if not cfg.quick then begin
    e4 ();
    e5 ();
    e6 ();
    e7 ();
    e8 ();
    e9 ();
    e10 ()
  end;
  let monitor_overhead, sampling_sweep = e11 ~cfg () in
  let convergence = e14 ~cfg () in
  let recorder = e15 ~cfg () in
  let trace = e16 ~cfg () in
  let idspace = e17 ~cfg () in
  let net = e18 ~cfg () in
  let elapsed_s = Unix.gettimeofday () -. t_start in
  write_bench_json ~opts ~cfg ~elapsed_s ~sizes ~reduction ~latencies
    ~monitor_overhead ~sampling_sweep ~convergence ~recorder ~trace ~idspace
    ~net;
  Format.printf "@.done.@."
