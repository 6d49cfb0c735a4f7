(* Simulation verbs: run a workload or a trace file over one or several
   tracking mechanisms (simulate, compare, metrics, profile), generate a
   trace (gen-trace) and draw one (draw). *)

open Cmdliner
open Vstamp_core
open Vstamp_sim
open Common

let with_metrics_sink metrics_out f =
  match metrics_out with
  | None -> f None
  | Some file ->
      let sink = Vstamp_obs.Sink.to_file file in
      Fun.protect
        ~finally:(fun () ->
          Vstamp_obs.Sink.close sink;
          Format.printf "wrote %d events to %s@."
            (Vstamp_obs.Sink.emitted sink) file)
        (fun () -> f (Some sink))

(* --- simulate --- *)

let simulate tracker backend workload seed n_ops no_oracle trace_file
    metrics_out check_invariants sampling violation_out =
  let tracker_or_err = tracker_for ~backend tracker in
  let ops_or_err = load_ops ~workload ~seed ~n_ops trace_file in
  match (tracker_or_err, ops_or_err, sampling) with
  | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
      die "%s" m
  | Ok tracker, Ok ops, Ok sampling ->
      with_metrics_sink metrics_out (fun sink ->
          exit_on_violation (fun () ->
              let registry = Vstamp_obs.Registry.create () in
              let r =
                System.run ~with_oracle:(not no_oracle) ~registry ?sink
                  ~check_invariants ~sampling ~sample_seed:seed ?violation_out
                  tracker ops
              in
              Format.printf "%a@." System.pp_result r;
              if check_invariants && sampling <> Vstamp_obs.Monitor.Always
              then begin
                let gauge name =
                  match
                    Vstamp_obs.Registry.find registry
                      (Printf.sprintf "%s{monitor=%S}" name
                         (Tracker.name tracker))
                  with
                  | Some (Vstamp_obs.Registry.Gauge g) ->
                      Vstamp_obs.Metric.value g
                  | _ -> nan
                in
                Format.printf
                  "monitor sampling: %.1f%% of steps checked, %.1f%% of run \
                   time in checks@."
                  (100.0 *. gauge "vstamp_monitor_coverage")
                  (100.0 *. gauge "vstamp_monitor_time_fraction")
              end))

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a workload over a tracking mechanism and report size/accuracy")
    Term.(
      const simulate $ tracker $ backend $ workload $ seed ~default:1
      $ n_ops ~default:400 $ no_oracle $ trace_file $ metrics_out
      $ check_invariants $ sampling $ violation_out)

(* --- compare --- *)

let compare_cmd =
  let default_trackers =
    [ Tracker.stamps; Tracker.stamps_list; Tracker.version_vectors; Tracker.dynamic_vv ]
  in
  let trackers =
    Arg.(
      value
      & opt (list tracker_conv) default_trackers
      & info [ "t"; "trackers" ] ~docv:"TRACKERS"
          ~doc:"Comma-separated mechanisms to compare")
  in
  let compare trackers workload seed n_ops no_oracle trace_file metrics_out =
    let ops = or_die (load_ops ~workload ~seed ~n_ops trace_file) in
    with_metrics_sink metrics_out (fun sink ->
        let rs =
          System.run_all ~with_oracle:(not no_oracle) ?sink trackers ops
        in
        Stats.pp_table Format.std_formatter ~header:System.header
          (List.map System.to_row rs))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run one trace over several mechanisms and tabulate the results")
    Term.(
      const compare $ trackers $ workload $ seed ~default:1
      $ n_ops ~default:400 $ no_oracle $ trace_file $ metrics_out)

(* --- metrics --- *)

let metrics tracker workload seed n_ops format =
  let ops = or_die (workload_of_name ~seed ~n_ops workload) in
  let registry = Vstamp_obs.Registry.create () in
  (* final stamp frontier computed before instrumentation starts, so
     the replay does not double the core op counters *)
  let final_stamps = Execution.Run_stamps.run ops in
  Vstamp_core.Instr.reset ();
  Telemetry.attach ~registry ();
  Fun.protect ~finally:Telemetry.detach (fun () ->
      let (_ : System.result) =
        System.run ~with_oracle:false ~registry tracker ops
      in
      (* exercise the wire codec on the final stamp frontier so the
         encoded/decoded byte counters mean something *)
      List.iter
        (fun s ->
          let bytes = Vstamp_codec.Wire.stamp_to_string s in
          ignore (Vstamp_codec.Wire.stamp_of_string bytes))
        final_stamps);
  Telemetry.sync_counters registry;
  match format with
  | `Prom -> print_string (Vstamp_obs.Registry.to_prometheus registry)
  | `Json ->
      print_endline
        (Vstamp_obs.Jsonx.to_string (Vstamp_obs.Registry.to_json registry))
  | `Table -> Vstamp_obs.Registry.pp_table Format.std_formatter registry

let metrics_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("prom", `Prom); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: table, prom (Prometheus text), or json")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a workload with full instrumentation (core op counters, \
          reduction stats, wire bytes, op latencies) and print the metric \
          registry")
    Term.(
      const metrics $ tracker $ workload $ seed ~default:1
      $ n_ops ~default:400 $ format)

(* --- gen-trace --- *)

let gen_trace workload seed n_ops output =
  let ops = or_die (workload_of_name ~seed ~n_ops workload) in
  match output with
  | Some file ->
      Trace.save ~file ops;
      let u, f, j = Trace.stats ops in
      Format.printf "wrote %d ops (u=%d f=%d j=%d) to %s@."
        (List.length ops) u f j file
  | None -> Format.printf "%s@." (Trace.to_string ops)

let gen_trace_cmd =
  Cmd.v
    (Cmd.info "gen-trace" ~doc:"Generate a workload trace for later replay")
    Term.(
      const gen_trace $ workload $ seed ~default:1 $ n_ops ~default:400
      $ output)

(* --- draw --- *)

let draw trace_file with_stamps =
  match Trace.load ~file:trace_file with
  | Error e -> die "%s: %a" trace_file Trace.pp_error e
  | Ok ops ->
      Format.printf "%s@." (Viz.header ops);
      Format.printf "%s" (Viz.draw ~with_stamps ops)

let draw_cmd =
  let trace_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_FILE")
  in
  let with_stamps =
    Arg.(
      value & flag
      & info [ "stamps" ] ~doc:"Label surviving lineages with their stamps")
  in
  Cmd.v
    (Cmd.info "draw" ~doc:"Render a trace file as an ASCII lineage diagram")
    Term.(const draw $ trace_file $ with_stamps)

(* --- profile --- *)

let profile tracker workload seed n_ops no_oracle trace_file check_invariants
    out weight top_n by =
  let ops = or_die (load_ops ~workload ~seed ~n_ops trace_file) in
  let p = Vstamp_obs.Profile.create () in
  exit_on_violation (fun () ->
      ignore
        (System.run ~with_oracle:(not no_oracle) ~check_invariants ~profile:p
           tracker ops
          : System.result));
  Vstamp_obs.Profile.pp_top ~by ~n:top_n Format.std_formatter p;
  Format.printf "attributed total: %.3f ms over %d stacks@."
    (Int64.to_float (Vstamp_obs.Profile.total_ns p) /. 1e6)
    (List.length (Vstamp_obs.Profile.rows p));
  match out with
  | None -> ()
  | Some file ->
      write_data (Some file) (Vstamp_obs.Profile.to_folded ~weight p);
      Format.printf
        "wrote collapsed stacks to %s (flamegraph.pl %s > prof.svg)@." file
        file

let profile_cmd =
  let out =
    out
      ~doc:
        "Write collapsed-stack output (one 'frame;frame weight' line per \
         stack, flamegraph.pl input) to FILE"
  in
  let weight =
    Arg.(
      value
      & opt (enum [ ("ns", `Ns); ("alloc", `Alloc) ]) `Ns
      & info [ "weight" ] ~docv:"WEIGHT"
          ~doc:"Folded-stack weight: ns (time) or alloc (bytes)")
  in
  let top_n =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-op table")
  in
  let by =
    Arg.(
      value
      & opt (enum [ ("ns", `Ns); ("alloc", `Alloc); ("count", `Count) ]) `Ns
      & info [ "by" ] ~docv:"KEY" ~doc:"Hot-op table order: ns, alloc, count")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the op-level profiler and report where the \
          time and allocation went, per tracker operation (update / fork / \
          join / monitor / record / oracle)")
    Term.(
      const profile $ tracker $ workload $ seed ~default:1 $ n_ops ~default:400
      $ no_oracle $ trace_file $ check_invariants $ out $ weight $ top_n $ by)
