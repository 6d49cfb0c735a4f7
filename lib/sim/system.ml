open Vstamp_core

type accuracy = {
  comparisons : int;
  spurious_orderings : int;
      (* tracker claims leq, oracle says no: causality invented *)
  missed_orderings : int;
      (* oracle says leq, tracker disagrees: causality lost *)
}

let perfect a = a.spurious_orderings = 0 && a.missed_orderings = 0

type size_summary = {
  frontier : int;
  mean_bits : float;
  p50_bits : float;
  p95_bits : float;
  p99_bits : float;
  max_bits : int;
  total_bits : int;
}

type result = {
  tracker : string;
  ops : int;
  updates : int;
  forks : int;
  joins : int;
  final : size_summary;
  peak_bits : int;
  mean_step_bits : float;
  accuracy : accuracy option;
}

let summarize sizes =
  let s = Stats.summary sizes in
  {
    frontier = List.length sizes;
    mean_bits = s.Stats.mean;
    p50_bits = s.Stats.p50;
    p95_bits = s.Stats.p95;
    p99_bits = s.Stats.p99;
    max_bits = s.Stats.max;
    total_bits = Stats.sum_int sizes;
  }

let count_ops ops =
  List.fold_left
    (fun (u, f, j) -> function
      | Execution.Update _ -> (u + 1, f, j)
      | Execution.Fork _ -> (u, f + 1, j)
      | Execution.Join _ -> (u, f, j + 1))
    (0, 0, 0) ops

(* Compare a tracker frontier against the element-aligned oracle
   frontier on all ordered pairs of distinct elements. *)
let accuracy_of (type a) (module T : Tracker.S with type t = a)
    (frontier : a list) (oracle : Causal_history.t list) =
  let ts = Array.of_list frontier and hs = Array.of_list oracle in
  let n = Array.length ts in
  let comparisons = ref 0
  and spurious = ref 0
  and missed = ref 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if x <> y then begin
        incr comparisons;
        let claimed = T.leq ts.(x) ts.(y) in
        let truth = Causal_history.subset hs.(x) hs.(y) in
        if claimed && not truth then incr spurious;
        if truth && not claimed then incr missed
      end
    done
  done;
  {
    comparisons = !comparisons;
    spurious_orderings = !spurious;
    missed_orderings = !missed;
  }

let op_label = function
  | Execution.Update _ -> "update"
  | Execution.Fork _ -> "fork"
  | Execution.Join _ -> "join"

exception
  Invariant_violation of {
    tracker : string;
    step : int;
    op : Execution.op;
    violations : Vstamp_core.Invariants.violation list;
    prefix : Execution.op list;
    saved : string option;
  }

let () =
  Printexc.register_printer (function
    | Invariant_violation { tracker; step; op; violations; prefix; saved } ->
        Some
          (Format.asprintf
             "Invariant_violation(tracker %s, step %d, op %s): %s; minimal \
              prefix of %d op(s)%s"
             tracker step
             (Execution.op_to_string op)
             (match violations with
             | [] -> "frontier order sanity failed"
             | vs ->
                 String.concat ", "
                   (List.map Vstamp_core.Invariants.violation_to_string vs))
             (List.length prefix)
             (match saved with
             | Some file -> Printf.sprintf " saved to %s" file
             | None -> ""))
    | _ -> None)

(* Telemetry around one run.  Timestamps in emitted events are the
   logical step counter — never a wall clock — so two runs of the same
   seeded trace produce byte-identical JSONL.  Wall-clock latencies,
   which are inherently nondeterministic, go only into the registry's
   histograms. *)
let run ?(with_oracle = true) ?registry ?sink ?(check_invariants = false)
    ?(sampling = Vstamp_obs.Monitor.Always) ?(sample_seed = 0) ?violation_out
    ?trace ?profile (Tracker.Packed (module T)) ops =
  let module R = Execution.Run (T) in
  let open Vstamp_obs in
  (* Per-attribution stacks are preallocated so profiling costs one
     closure call per op, not a list cons. *)
  let stack_update = [ T.name; "update" ]
  and stack_fork = [ T.name; "fork" ]
  and stack_join = [ T.name; "join" ]
  and stack_monitor = [ T.name; "monitor" ]
  and stack_record = [ T.name; "record" ]
  and stack_oracle = [ T.name; "oracle" ] in
  let profiled stack f =
    match profile with None -> f () | Some p -> Profile.time p stack f
  in
  let run_t0 = Clock.now_ns () in
  let st0, f0 = R.init in
  let sizes0 = List.map T.size_bits f0 in
  let emit_step step op sizes =
    match sink with
    | None -> ()
    | Some sk ->
        Sink.emit sk
          (Event.v ~ts:(Event.Step step) "sim.step"
             [
               ("tracker", Jsonx.String T.name);
               ("op", Jsonx.String (Execution.op_to_string op));
               ("frontier", Jsonx.Int (List.length sizes));
               ("total_bits", Jsonx.Int (Stats.sum_int sizes));
               ("max_bits", Jsonx.Int (Stats.max_int_list sizes));
             ])
  in
  let observe_sizes sizes =
    match registry with
    | None -> ()
    | Some reg ->
        let h =
          Registry.histogram reg
            (Printf.sprintf "sim_size_bits{tracker=%S}" T.name)
        in
        List.iter (Metric.observe_int h) sizes
  in
  let timed_apply st f op =
    match registry with
    | None -> R.apply st f op
    | Some reg ->
        let t0 = Clock.now_ns () in
        let r = R.apply st f op in
        Metric.observe
          (Registry.histogram reg
             (Printf.sprintf "sim_op_ns{tracker=%S,op=%S}" T.name (op_label op)))
          (Int64.to_float (Int64.sub (Clock.now_ns ()) t0));
        r
  in
  let apply st f op =
    let stack =
      match op with
      | Execution.Update _ -> stack_update
      | Execution.Fork _ -> stack_fork
      | Execution.Join _ -> stack_join
    in
    profiled stack (fun () -> timed_apply st f op)
  in
  (* Causal-trace recording: one DAG node per replica state, parents
     derived from the positional op structure.  [heads] mirrors the
     frontier with the node id currently carrying each position. *)
  let heads = ref [] in
  let record_label x = Format.asprintf "%a" T.pp x in
  (match trace with
  | None -> ()
  | Some tr ->
      heads :=
        List.map
          (fun x ->
            Causal_trace.add tr ~step:0 ~kind:Causal_trace.Seed ~parents:[]
              ~replica:0 ~label:(record_label x))
          f0);
  let record_step step op frontier' =
    match trace with
    | None -> ()
    | Some tr ->
        profiled stack_record @@ fun () -> (
        let head i = List.nth !heads i in
        let state i = record_label (List.nth frontier' i) in
        match op with
        | Execution.Update i ->
            let n =
              Causal_trace.add tr ~step ~kind:Causal_trace.Update
                ~parents:[ head i ] ~replica:i ~label:(state i)
            in
            heads := List.mapi (fun k h -> if k = i then n else h) !heads
        | Execution.Fork i ->
            let p = head i in
            let l =
              Causal_trace.add tr ~step ~kind:Causal_trace.Fork_left
                ~parents:[ p ] ~replica:i ~label:(state i)
            in
            let r =
              Causal_trace.add tr ~step ~kind:Causal_trace.Fork_right
                ~parents:[ p ] ~replica:(i + 1)
                ~label:(state (i + 1))
            in
            heads := Execution.fork_positions !heads i ~left:l ~right:r
        | Execution.Join (i, j) ->
            let lo = min i j in
            let n =
              Causal_trace.add tr ~step ~kind:Causal_trace.Join
                ~parents:[ head i; head j ] ~replica:lo ~label:(state lo)
            in
            heads := Execution.join_positions !heads i j ~merged:n)
  in
  (* Runtime invariant monitoring: I1–I3 via the tracker's own checker
     plus an order-sanity pass (frontier order must at least be
     reflexive), after every step.  A failing check fails loudly with
     the minimal witness: the shortest failing prefix is saved as a
     replayable trace and carried in the exception. *)
  let monitor =
    if check_invariants then begin
      (* the Probability policy draws from the sim's deterministic RNG,
         so a sampled run is exactly reproducible from (trace, seed) *)
      let sample =
        let rng = ref (Rng.make sample_seed) in
        fun () ->
          let x, r = Rng.float !rng in
          rng := r;
          x
      in
      Some (Monitor.create ?registry ?sink ~sampling ~sample T.name)
    end
    else None
  in
  let monitor_ns = ref 0L in
  let monitor_step ?force step op frontier rev_prefix =
    match monitor with
    | None -> ()
    | Some m ->
        let violations = ref [] and order_failures = ref [] in
        let witness () =
          violations := T.invariants frontier;
          order_failures :=
            List.concat
              (List.mapi (fun i x -> if T.leq x x then [] else [ i ]) frontier);
          Telemetry.violation_witness ~violations:!violations
            ~order_failures:!order_failures
        in
        let passed =
          profiled stack_monitor (fun () ->
              let t0 = Clock.now_ns () in
              let ok = Monitor.check m ?force ~step witness in
              monitor_ns := Int64.add !monitor_ns (Int64.sub (Clock.now_ns ()) t0);
              ok)
        in
        if not passed then begin
          let prefix = List.rev rev_prefix in
          let saved =
            match violation_out with
            | None -> None
            | Some file ->
                Trace.save ~file prefix;
                Some file
          in
          raise
            (Invariant_violation
               {
                 tracker = T.name;
                 step;
                 op;
                 violations = !violations;
                 prefix;
                 saved;
               })
        end
  in
  (match sink with
  | Some sk ->
      Sink.emit sk
        (Event.v ~ts:(Event.Step 0) "sim.start"
           [
             ("tracker", Jsonx.String T.name);
             ("ops", Jsonx.Int (List.length ops));
           ])
  | None -> ());
  observe_sizes sizes0;
  monitor_step 0 (Execution.Update 0) f0 [];
  let (_, final_frontier), rev_step_sizes, _, rev_prefix_all =
    List.fold_left
      (fun ((st, f), acc, step, rev_prefix) op ->
        let st', f' = apply st f op in
        let sizes = List.map T.size_bits f' in
        emit_step step op sizes;
        observe_sizes sizes;
        record_step step op f';
        monitor_step step op f' (op :: rev_prefix);
        ((st', f'), sizes :: acc, step + 1, op :: rev_prefix))
      ((st0, f0), [ sizes0 ], 1, [])
      ops
  in
  (* Under sampling the last step may have been skipped; the final
     frontier is the run's deliverable, so force-check it.  (With
     [Always] it was just checked and this is a no-op.) *)
  (match (monitor, rev_prefix_all) with
  | Some m, last_op :: _ ->
      let n = List.length ops in
      if Monitor.last_checked_step m <> Some n then
        monitor_step ~force:true n last_op final_frontier rev_prefix_all
  | _ -> ());
  (* What monitoring cost this run, as registry gauges: cumulative check
     time and its share of the whole run (slowdown ~ 1/(1 - share)). *)
  (match monitor with
  | None -> ()
  | Some _ ->
      let reg =
        match registry with Some r -> r | None -> Registry.default
      in
      let total_ns = Int64.to_float (Int64.sub (Clock.now_ns ()) run_t0) in
      let mon_ns = Int64.to_float !monitor_ns in
      Metric.set
        (Registry.gauge reg
           (Printf.sprintf "vstamp_monitor_check_ns{monitor=%S}" T.name))
        mon_ns;
      Metric.set
        (Registry.gauge reg
           (Printf.sprintf "vstamp_monitor_time_fraction{monitor=%S}" T.name))
        (if total_ns > 0.0 then mon_ns /. total_ns else 0.0));
  let step_sizes = List.rev rev_step_sizes in
  let updates, forks, joins = count_ops ops in
  let accuracy =
    if with_oracle then
      profiled stack_oracle (fun () ->
          let oracle = Execution.Run_histories.run ops in
          Some (accuracy_of (module T) final_frontier oracle))
    else None
  in
  let result =
    {
      tracker = T.name;
      ops = List.length ops;
      updates;
      forks;
      joins;
      final = summarize (List.map T.size_bits final_frontier);
      peak_bits = Stats.max_int_list (List.map Stats.max_int_list step_sizes);
      mean_step_bits = Stats.mean (List.map Stats.mean_int step_sizes);
      accuracy;
    }
  in
  (match sink with
  | Some sk ->
      let acc_fields =
        match accuracy with
        | None -> []
        | Some a ->
            [
              ("comparisons", Jsonx.Int a.comparisons);
              ("spurious", Jsonx.Int a.spurious_orderings);
              ("missed", Jsonx.Int a.missed_orderings);
            ]
      in
      Sink.emit sk
        (Event.v ~ts:(Event.Step result.ops) "sim.result"
           ([
              ("tracker", Jsonx.String T.name);
              ("ops", Jsonx.Int result.ops);
              ("updates", Jsonx.Int updates);
              ("forks", Jsonx.Int forks);
              ("joins", Jsonx.Int joins);
              ("frontier", Jsonx.Int result.final.frontier);
              ("mean_bits", Jsonx.Float result.final.mean_bits);
              ("p95_bits", Jsonx.Float result.final.p95_bits);
              ("max_bits", Jsonx.Int result.final.max_bits);
              ("total_bits", Jsonx.Int result.final.total_bits);
              ("peak_bits", Jsonx.Int result.peak_bits);
            ]
           @ acc_fields))
  | None -> ());
  result

let run_all ?with_oracle ?sink trackers ops =
  List.map (fun t -> run ?with_oracle ?sink t ops) trackers

let pp_accuracy ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some a ->
      if perfect a then Format.fprintf ppf "exact (%d cmp)" a.comparisons
      else
        Format.fprintf ppf "%d spurious, %d missed of %d"
          a.spurious_orderings a.missed_orderings a.comparisons

let pp_result ppf r =
  Format.fprintf ppf
    "%-18s ops=%d (u=%d f=%d j=%d) frontier=%d mean=%.1fb max=%db peak=%db acc=%a"
    r.tracker r.ops r.updates r.forks r.joins r.final.frontier
    r.final.mean_bits r.final.max_bits r.peak_bits pp_accuracy r.accuracy

let to_row r =
  [
    r.tracker;
    string_of_int r.ops;
    string_of_int r.final.frontier;
    Printf.sprintf "%.1f" r.final.mean_bits;
    Printf.sprintf "%.0f" r.final.p95_bits;
    string_of_int r.final.max_bits;
    string_of_int r.peak_bits;
    Format.asprintf "%a" pp_accuracy r.accuracy;
  ]

let header =
  [
    "tracker";
    "ops";
    "frontier";
    "mean bits";
    "p95 bits";
    "max bits";
    "peak bits";
    "accuracy";
  ]
