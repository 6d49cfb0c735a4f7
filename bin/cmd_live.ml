(* Live views over a soaking or serving process's HTTP plane: top and
   scrape, and the lag and churn scenarios, which run offline unless
   --port points them at a live soak. *)

open Cmdliner
open Vstamp_sim
open Common
module Obs_conv = Vstamp_obs.Convergence
module Obs_id = Vstamp_obs.Idspace

(* --- top --- *)

(* Cluster mode: one /cluster.json fetch per frame, rendered as the
   multi-node panel. *)
let top_cluster live ~port interval frames no_color =
  let frame () =
    match fetch_json live ~port "/cluster.json" with
    | Ok j -> Vstamp_obs.Dash.render_cluster ~color:(not no_color) j
    | Error m -> die "%s" m
  in
  if frames = 1 then begin
    print_string (frame ());
    flush stdout
  end
  else begin
    let rec loop n =
      print_string Vstamp_obs.Dash.clear_screen;
      print_string (frame ());
      flush stdout;
      if frames = 0 || n < frames then begin
        Unix.sleepf interval;
        loop (n + 1)
      end
    in
    loop 1
  end

let top live ~port interval frames events_n no_color spark_arg =
  let fetch path = fetch_json live ~port path in
  let stats () =
    match fetch "/stats.json" with Ok j -> j | Error m -> die "%s" m
  in
  let spark_names =
    String.split_on_char ',' spark_arg
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  (* Flight-recorder panels: both endpoints 404 on a server without a
     recorder or alert engine — the panels just don't render then. *)
  let fetch_sparks () =
    List.filter_map
      (fun metric ->
        match
          fetch (Printf.sprintf "/range.json?metric=%s&from=-120" metric)
        with
        | Ok j -> (
            match Jx.member "points" j with
            | Some (Jx.List (_ :: _ as pts)) ->
                Some
                  ( metric,
                    List.filter_map
                      (fun p -> Option.bind (Jx.member "avg" p) Jx.to_float)
                      pts )
            | _ -> None)
        | Error _ -> None)
      spark_names
  in
  let frame_of prev prev_t =
    let cur = stats () in
    let now = Unix.gettimeofday () in
    let deltas =
      Vstamp_obs.Registry.diff ~elapsed_s:(now -. prev_t) ~prev cur
    in
    let health = Result.to_option (fetch "/healthz") in
    let events =
      match fetch (Printf.sprintf "/events.json?n=%d" events_n) with
      | Ok (Jx.List l) -> List.map Jx.to_string l
      | _ -> []
    in
    ( Vstamp_obs.Dash.render ~color:(not no_color) ~events ?health
        ?alerts:(Result.to_option (fetch "/alerts.json"))
        ~sparks:(fetch_sparks ()) ~deltas ~snapshot:cur (),
      cur,
      now )
  in
  let first = stats () in
  if frames = 1 then begin
    (* --once: a single frame, immediately, from one snapshot (rates
       read 0 — there is no second sample to difference against), no
       screen clearing, exit 0.  Scriptable in CI and over ssh pipes. *)
    let frame, _, _ = frame_of first (Unix.gettimeofday ()) in
    print_string frame;
    flush stdout
  end
  else begin
    let rec loop n prev prev_t =
      Unix.sleepf interval;
      let frame, cur, now = frame_of prev prev_t in
      print_string Vstamp_obs.Dash.clear_screen;
      print_string frame;
      flush stdout;
      if frames = 0 || n < frames then loop (n + 1) cur now
    in
    loop 1 first (Unix.gettimeofday ())
  end

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc:"Poll interval")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N" ~doc:"Stop after N frames (0: forever)")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (no screen clearing)")
  in
  let events_n =
    Arg.(
      value & opt int 8
      & info [ "events" ] ~docv:"N" ~doc:"Recent events to show")
  in
  let no_color =
    Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI styling")
  in
  let spark =
    Arg.(
      value
      & opt string
          "soak_iterations_total,runtime_heap_words,runtime_allocation_rate_words_per_s"
      & info [ "spark" ] ~docv:"METRICS"
          ~doc:
            "Comma-separated metric names to render as flight-recorder \
             sparklines (needs a server with /range.json; missing series \
             are skipped)")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Render the multi-node cluster panel from /cluster.json (a \
             `soak --cluster` parent) instead of the single-process \
             dashboard")
  in
  let wrap port interval frames once events_n no_color spark cluster live =
    let frames = if once then 1 else frames in
    if cluster then top_cluster live ~port interval frames no_color
    else top live ~port interval frames events_n no_color spark
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a soaking process: polls \
          /stats.json, differences successive snapshots into per-second \
          rates (Registry.diff), and repaints alerts, op rates, gauges, \
          flight-recorder sparklines, histogram summaries and the latest \
          events.  --once renders a single frame immediately and exits 0 \
          (no screen clearing) for CI and ssh pipes; --cluster renders \
          the multi-node panel of a `soak --cluster` parent")
    Term.(
      const wrap $ port ~default:9464 ~doc:"Server port" $ interval $ frames
      $ once $ events_n $ no_color $ spark $ cluster $ live)

(* --- scrape --- *)

let scrape port path live =
  match get live ~port path with
  | Ok (200, body) -> print_string body
  | Ok (status, body) ->
      Format.eprintf "error: GET %s: HTTP %d@.%s" path status body;
      exit 1
  | Error m -> die "GET %s: %s" path m

let scrape_cmd =
  let path =
    Arg.(
      value & pos 0 string "/metrics"
      & info [] ~docv:"PATH" ~doc:"Endpoint path (default /metrics)")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch one telemetry endpoint (curl-free, for scripts and CI \
          smoke): prints the body of GET PATH, exits non-zero on any \
          HTTP or transport error; --retry N waits out a server that \
          is still coming up")
    Term.(const scrape $ port ~default:9464 ~doc:"Server port" $ path $ live)

(* --- the live views of lag and churn --- *)

(* Fetch [path] from a soaking process and print it raw (--json) or
   through [render]. *)
let live_view live ~port ~json verb path render =
  match fetch_json live ~port path with
  | Error m -> die "%s" m
  | Ok j when json -> print_endline (Jx.to_string j)
  | Ok j ->
      Format.printf "%s: live http://%s:%d%s@." verb live.host port path;
      render j

let num v =
  match Option.bind v Jx.to_float with
  | Some f -> Printf.sprintf "%g" f
  | None -> "-"

(* One line for the numeric object [name] of a live view, [none] when
   it is empty. *)
let fields j ~none label name =
  let kvs = match Jx.member name j with Some (Jx.Obj kvs) -> kvs | _ -> [] in
  Format.printf "  %s:%s@." label
    (if kvs = [] then none
     else
       String.concat ""
         (List.map
            (fun (k, v) -> Printf.sprintf " %s=%s" k (num (Some v)))
            kvs))

(* --- lag --- *)

(* Sim mode: run the Lag convergence scenario and render its report —
   the divergence matrix at quiescence, per-replica staleness, the
   convergence timing and the sync-delta ledger. *)
let lag_sim tracker backend replicas rounds p_update syncs_per_round severity
    seed epoch json =
  let tracker = or_die (tracker_for ~backend tracker) in
  if not (severity >= 0.0 && severity <= 1.0) then
    die "--severity needs a value in [0, 1]";
  if replicas < 2 then die "--replicas needs at least 2";
  let cfg =
    {
      Lag.replicas;
      rounds;
      p_update;
      syncs_per_round;
      severity;
      seed;
      epoch;
      max_heal_rounds = 16;
    }
  in
  let r = Lag.run cfg tracker in
  if json then begin
    let matrix_j = Obs_conv.matrix_to_json in
    let conv_j =
      match r.Lag.convergence with
      | None -> Jx.Null
      | Some (ns, steps) ->
          Jx.Obj
            [
              ("ns", Jx.Float (Int64.to_float ns)); ("steps", Jx.Int steps);
            ]
    in
    print_endline
      (Jx.to_string
         (Jx.Obj
            [
              ("tracker", Jx.String (Tracker.name tracker));
              ("replicas", Jx.Int r.Lag.replicas);
              ("severity", Jx.Float severity);
              ("updates", Jx.Int r.Lag.updates);
              ("syncs", Jx.Int r.Lag.syncs);
              ("blocked_syncs", Jx.Int r.Lag.blocked_syncs);
              ("heal_rounds", Jx.Int r.Lag.heal_rounds);
              ("converged", Jx.Bool r.Lag.converged);
              ("convergence", conv_j);
              ("peak_width", Jx.Int r.Lag.peak_width);
              ("peak_lag", Jx.Int r.Lag.peak_lag);
              ("mean_lag", Jx.Float r.Lag.mean_lag);
              ("peak_entropy", Jx.Float r.Lag.peak_entropy);
              ("divergence", matrix_j r.Lag.divergence);
              ("final", matrix_j r.Lag.final);
              ("shipped_bytes", Jx.Int r.Lag.shipped_bytes);
              ("minimal_bytes", Jx.Int r.Lag.minimal_bytes);
              ("redundant_bytes", Jx.Int r.Lag.redundant_bytes);
              ("delta_efficiency", Jx.Float r.Lag.delta_efficiency);
            ]))
  end
  else begin
    Format.printf
      "lag: tracker=%s replicas=%d rounds=%d severity=%.2f seed=%d@."
      (Tracker.name tracker) replicas rounds severity seed;
    Format.printf
      "  %d updates, %d syncs (%d blocked by weather), peak width %d, \
       peak lag %d, mean lag %.2f@."
      r.Lag.updates r.Lag.syncs r.Lag.blocked_syncs r.Lag.peak_width
      r.Lag.peak_lag r.Lag.mean_lag;
    Format.printf "divergence at quiescence (= equal, > dominates, < \
                   dominated, # concurrent):@.%a"
      Obs_conv.pp_matrix r.Lag.divergence;
    Format.printf "converged: %b (%d heal rounds)@." r.Lag.converged
      r.Lag.heal_rounds;
    (match r.Lag.convergence with
    | Some (ns, steps) ->
        Format.printf "  convergence: %d steps, %Ld ns after last write@."
          steps ns
    | None -> ());
    Format.printf
      "sync delta: shipped=%dB minimal=%dB redundant=%dB efficiency=%.3f@."
      r.Lag.shipped_bytes r.Lag.minimal_bytes r.Lag.redundant_bytes
      r.Lag.delta_efficiency;
    if not r.Lag.converged then exit 3
  end

let lag_live live port json =
  live_view live ~port ~json "lag" "/lag.json" (fun j ->
      let fields = fields j ~none:" (none)" in
      fields "replica lag" "replica_lag";
      fields "divergence pairs" "divergence_pairs";
      Format.printf "  frontier width: %s, entropy %s@."
        (num (Jx.member "frontier_width" j))
        (num (Jx.member "divergence_entropy" j));
      (match
         ( Option.bind (Jx.member "convergence_ns" j) Jx.to_float,
           Option.bind (Jx.member "convergence_steps" j) Jx.to_float )
       with
      | Some ns, Some steps ->
          Format.printf "  convergence: %.0f steps, %.0f ns after last \
                         write@."
            steps ns
      | _ -> Format.printf "  convergence: not yet observed@.");
      fields "sync delta" "sync_delta")

let lag_cmd =
  let port =
    live_port
      ~doc:
        "Render the /lag.json view of a live soak on PORT instead of \
         running the simulation"
  in
  let replicas =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Frontier size (>= 2)")
  in
  let rounds =
    Arg.(
      value & opt int 12
      & info [ "rounds" ] ~docv:"N" ~doc:"Active rounds before quiescence")
  in
  let wrap port tracker backend replicas rounds p_update syncs_per_round
      severity seed epoch json live =
    match port with
    | Some p -> lag_live live p json
    | None ->
        lag_sim tracker backend replicas rounds p_update syncs_per_round
          severity seed epoch json
  in
  Cmd.v
    (Cmd.info "lag"
       ~doc:
         "Convergence report: run a partition-weather scenario and render \
          the divergence matrix, per-replica staleness against the \
          causal-history oracle, time-to-convergence and the sync-delta \
          ledger — or, with --port, render the live /lag.json view of a \
          soaking process")
    Term.(
      const wrap $ port $ tracker $ backend $ replicas $ rounds $ p_update
      $ syncs_per_round $ severity ~default:0.6 $ seed ~default:42 $ epoch
      $ json $ live)

(* --- churn: the identity-space observatory's scenario --- *)

(* Sim mode: run the replica-churn scenario — high-rate fork/retire
   under partition weather, a lockstep dynamic-VV lane — and render the
   identity-space report: fragmentation and reclamation analytics, the
   dynamic-VV baggage comparison, and the partition-of-unity audit
   (witnesses and exit 3 when it fails). *)
let churn_sim replicas min_replicas max_replicas rounds p_update
    syncs_per_round churn_rate gc_every severity seed epoch
    inject_corruption dot_out genealogy_out json =
  if not (severity >= 0.0 && severity <= 1.0) then
    die "--severity needs a value in [0, 1]";
  if replicas < 1 then die "--replicas needs at least 1";
  if min_replicas < 1 then die "--min-replicas needs at least 1";
  if max_replicas < replicas then
    die "--max-replicas needs a value >= --replicas";
  if churn_rate < 0.0 then die "--churn-rate needs a non-negative rate";
  if gc_every < 1 then die "--gc-every needs at least 1";
  let cfg =
    {
      Churn.replicas;
      min_replicas;
      max_replicas;
      rounds;
      p_update;
      syncs_per_round;
      churn_rate;
      gc_every;
      severity;
      seed;
      epoch;
      inject_corruption;
    }
  in
  let r = Churn.run cfg in
  let out_of file = if file = "-" then None else Some file in
  (match dot_out with
  | Some file -> write_data (out_of file) (Obs_id.to_dot r.Churn.genealogy)
  | None -> ());
  (match genealogy_out with
  | Some file ->
      write_data (out_of file)
        (Jx.to_string (Obs_id.to_json r.Churn.genealogy) ^ "\n")
  | None -> ());
  let audit = r.Churn.audit in
  if json then
    print_endline
      (Jx.to_string
         (Jx.Obj
            [
              ("replicas", Jx.Int replicas);
              ("max_replicas", Jx.Int max_replicas);
              ("rounds", Jx.Int r.Churn.rounds);
              ("churn_rate", Jx.Float churn_rate);
              ("severity", Jx.Float severity);
              ("updates", Jx.Int r.Churn.updates);
              ("syncs", Jx.Int r.Churn.syncs);
              ("blocked_syncs", Jx.Int r.Churn.blocked_syncs);
              ("forks", Jx.Int r.Churn.forks);
              ("retires", Jx.Int r.Churn.retires);
              ("blocked_retires", Jx.Int r.Churn.blocked_retires);
              ("peak_replicas", Jx.Int r.Churn.peak_replicas);
              ("final_replicas", Jx.Int r.Churn.final_replicas);
              ("stamp_id_bits", Jx.Int r.Churn.stamp_id_bits);
              ("stamp_peak_id_bits", Jx.Int r.Churn.stamp_peak_id_bits);
              ("stamp_id_width", Jx.Int r.Churn.stamp_id_width);
              ("stamp_max_depth", Jx.Int r.Churn.stamp_max_depth);
              ("stamp_size_bits", Jx.Int r.Churn.stamp_size_bits);
              ("reclaimed_bits", Jx.Int r.Churn.reclaimed_bits);
              ("fork_bits", Jx.Int r.Churn.fork_bits);
              ("oracle_bits", Jx.Int r.Churn.oracle_bits);
              ("entropy", Jx.Float r.Churn.entropy);
              ("oracle_entropy", Jx.Float r.Churn.oracle_entropy);
              ( "reduce_effectiveness",
                Jx.Float r.Churn.reduce_effectiveness );
              ("dvv_entries", Jx.Int r.Churn.dvv_entries);
              ("dvv_retired_entries", Jx.Int r.Churn.dvv_retired_entries);
              ( "dvv_peak_retired_entries",
                Jx.Int r.Churn.dvv_peak_retired_entries );
              ("dvv_size_bits", Jx.Int r.Churn.dvv_size_bits);
              ("dvv_gc_dropped", Jx.Int r.Churn.dvv_gc_dropped);
              ("relation_mismatches", Jx.Int r.Churn.relation_mismatches);
              ("audit_clean", Jx.Bool r.Churn.audit_clean);
              ( "audit",
                Jx.Obj
                  [
                    ("audited", Jx.Int audit.Obs_id.audited);
                    ("fragments", Jx.Int audit.Obs_id.audit_fragments);
                    ( "violations",
                      Jx.List
                        (List.map Obs_id.violation_json
                           audit.Obs_id.violations) );
                  ] );
            ]))
  else begin
    Format.printf
      "churn: replicas=%d..%d rounds=%d rate=%.2f severity=%.2f seed=%d@."
      replicas max_replicas r.Churn.rounds churn_rate severity seed;
    Format.printf
      "  %d updates, %d syncs (%d blocked by weather), %d forks, %d \
       retires (%d blocked), population %d -> %d (peak %d)@."
      r.Churn.updates r.Churn.syncs r.Churn.blocked_syncs r.Churn.forks
      r.Churn.retires r.Churn.blocked_retires replicas
      r.Churn.final_replicas r.Churn.peak_replicas;
    Format.printf
      "  identity space: %d fragments, %d id bits (oracle %d), entropy \
       %.3f (oracle %.3f), max depth %d@."
      r.Churn.stamp_id_width r.Churn.stamp_id_bits r.Churn.oracle_bits
      r.Churn.entropy r.Churn.oracle_entropy r.Churn.stamp_max_depth;
    Format.printf
      "  reclamation: %d bits reclaimed of %d forked, reduce \
       effectiveness %.3f@."
      r.Churn.reclaimed_bits r.Churn.fork_bits r.Churn.reduce_effectiveness;
    Format.printf
      "  dynamic vv: %d entries (%d retired baggage, peak %d), %d size \
       bits, gc dropped %d@."
      r.Churn.dvv_entries r.Churn.dvv_retired_entries
      r.Churn.dvv_peak_retired_entries r.Churn.dvv_size_bits
      r.Churn.dvv_gc_dropped;
    Format.printf "  relation mismatches: %d@." r.Churn.relation_mismatches;
    if r.Churn.audit_clean then
      Format.printf "  audit: clean (%d replicas, %d fragments audited)@."
        audit.Obs_id.audited audit.Obs_id.audit_fragments
    else begin
      Format.printf "  audit: %d violation(s)@."
        (List.length audit.Obs_id.violations);
      List.iter
        (fun v -> Format.printf "    %a@." Obs_id.pp_violation v)
        audit.Obs_id.violations
    end
  end;
  if not r.Churn.audit_clean then exit 3

let churn_live live port json =
  live_view live ~port ~json "churn" "/idspace.json" (fun j ->
      let fields =
        fields j ~none:" (none — has the soak run with --churn?)"
      in
      fields "identity space" "idspace";
      fields "ops" "ops";
      Format.printf "  reclaimed bits: %s, fork bits: %s@."
        (num (Jx.member "reclaimed_bits_total" j))
        (num (Jx.member "fork_bits_total" j)))

let churn_cmd =
  let port =
    live_port
      ~doc:
        "Render the /idspace.json view of a live soak on PORT instead of \
         running the simulation"
  in
  let replicas =
    Arg.(
      value & opt int 4
      & info [ "replicas" ] ~docv:"N" ~doc:"Initial population (>= 1)")
  in
  let min_replicas =
    Arg.(
      value & opt int 2
      & info [ "min-replicas" ] ~docv:"N"
          ~doc:"Retires stop at this population floor")
  in
  let max_replicas =
    Arg.(
      value & opt int 16
      & info [ "max-replicas" ] ~docv:"N"
          ~doc:"Forks stop at this population ceiling")
  in
  let rounds =
    Arg.(
      value & opt int 16 & info [ "rounds" ] ~docv:"N" ~doc:"Scenario rounds")
  in
  let churn_rate =
    Arg.(
      value & opt float 1.0
      & info [ "churn-rate" ] ~docv:"RATE"
          ~doc:
            "Expected forks per round, and independently expected \
             retire attempts per round.  Forks are autonomous (never \
             weather-blocked — the paper's point); retires need \
             connectivity")
  in
  let gc_every =
    Arg.(
      value & opt int 1
      & info [ "gc-every" ] ~docv:"N"
          ~doc:"Dynamic-VV gc sweep cadence, in rounds")
  in
  let inject_corruption =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-corruption" ] ~docv:"ROUND"
          ~doc:
            "Fault injection: at ROUND, corrupt one live replica's \
             fragment inventory so the partition-of-unity audit must \
             produce an overlap witness (and the command exit 3) — \
             proof the auditor is actually wired in")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the genealogy DAG as Graphviz DOT to FILE (- for \
             stdout): live nodes bold, consumed nodes grey, retire \
             edges dashed")
  in
  let genealogy_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "genealogy" ] ~docv:"FILE"
          ~doc:
            "Write the full genealogy export (vstamp-idspace/1 JSON: \
             every incarnation with lineage and fragment, stats and the \
             audit) to FILE (- for stdout)")
  in
  let wrap port replicas min_replicas max_replicas rounds p_update
      syncs_per_round churn_rate gc_every severity seed epoch
      inject_corruption dot_out genealogy_out json live =
    match port with
    | Some p -> churn_live live p json
    | None ->
        churn_sim replicas min_replicas max_replicas rounds p_update
          syncs_per_round churn_rate gc_every severity seed epoch
          inject_corruption dot_out genealogy_out json
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Identity-space observatory: run the replica-churn scenario \
          (high-rate autonomous fork / weather-gated retire, a lockstep \
          dynamic-VV lane) and render fragmentation analytics, id-digit \
          reclamation vs the oracle minimum, the dynamic-VV retired- \
          entry baggage comparison and the partition-of-unity audit \
          (exit 3 on a violation); --dot/--genealogy export the lineage \
          DAG; or, with --port, render the live /idspace.json view of a \
          soaking process")
    Term.(
      const wrap $ port $ replicas $ min_replicas $ max_replicas $ rounds
      $ p_update $ syncs_per_round $ churn_rate $ gc_every
      $ severity ~default:0.4 $ seed ~default:42 $ epoch $ inject_corruption
      $ dot_out $ genealogy_out $ json $ live)
