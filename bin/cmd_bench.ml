(* vstamp bench: the benchmark ledger and regression gate over
   BENCH_core.json runs — diff two runs, gate one against a baseline,
   browse the ledger. *)

open Cmdliner
open Vstamp_sim
open Common
module BS = Vstamp_obs.Bench_store

let load_run file =
  match BS.load ~file with Error m -> die "%s" m | Ok run -> run

let pp_run_id ppf run =
  match BS.git_rev run with
  | Some rev ->
      Format.fprintf ppf "%s (%s)"
        (String.sub rev 0 (min 12 (String.length rev)))
        (BS.schema run)
  | None -> Format.pp_print_string ppf (BS.schema run)

let diff ignore_config limit old_file new_file =
  let baseline = load_run old_file and current = load_run new_file in
  match BS.compare_runs ~ignore_config ~baseline current with
  | Error m -> die "%s" m
  | Ok deltas ->
      Format.printf "baseline: %s %a@.current:  %s %a@.@." old_file pp_run_id
        baseline new_file pp_run_id current;
      BS.pp_delta_table ~limit Format.std_formatter deltas;
      let n = List.length deltas in
      let worse = List.length (BS.regressions ~tolerance:0.0 deltas) in
      let better = List.length (BS.improvements ~tolerance:0.0 deltas) in
      Format.printf "@.%d comparable metrics: %d worse, %d better, %d equal@."
        n worse better (n - worse - better)

let diff_cmd =
  let run n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two benchmark runs metric by metric (op latencies, sizes, \
          reduction efficacy, monitor overheads), worst regression first")
    Term.(
      const diff $ ignore_config $ limit $ run 0 "OLD_JSON" $ run 1 "NEW_JSON")

let check baseline_file current_file tolerance ignore_config limit =
  let baseline = load_run baseline_file and current = load_run current_file in
  match BS.compare_runs ~ignore_config ~baseline current with
  | Error m -> die "%s" m
  | Ok deltas -> (
      let regs = BS.regressions ~tolerance deltas in
      let imps = BS.improvements ~tolerance deltas in
      Format.printf
        "checked %d metrics of %s %a against baseline %s %a (tolerance \
         %.1f%%)@."
        (List.length deltas) current_file pp_run_id current baseline_file
        pp_run_id baseline tolerance;
      match regs with
      | [] ->
          Format.printf "OK: no regressions beyond %.1f%%; %d improvements@."
            tolerance (List.length imps)
      | _ ->
          Format.printf "@.REGRESSIONS (worse by more than %.1f%%):@.@."
            tolerance;
          BS.pp_delta_table ~limit Format.std_formatter regs;
          exit 1)

let check_cmd =
  let baseline_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline benchmark JSON")
  in
  let current_file =
    Arg.(
      value
      & pos 0 string "BENCH_core.json"
      & info [] ~docv:"CURRENT_JSON"
          ~doc:"Run to gate (default BENCH_core.json)")
  in
  let tolerance =
    Arg.(
      value & opt float 10.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression per metric, in percent")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Regression gate: exit non-zero when any metric of the current run \
          is worse than the baseline by more than the tolerance")
    Term.(
      const check $ baseline_file $ current_file $ tolerance $ ignore_config
      $ limit)

let history file limit =
  match BS.history ~file with
  | Error m -> die "%s" m
  | Ok entries ->
      let entries =
        let n = List.length entries in
        if limit > 0 && n > limit then
          List.filteri (fun i _ -> i >= n - limit) entries
        else entries
      in
      let rows =
        List.mapi
          (fun i j ->
            let str path =
              match Vstamp_obs.Jsonx.member path j with
              | Some (Vstamp_obs.Jsonx.String s) -> s
              | _ -> "-"
            in
            let recorded =
              match Vstamp_obs.Jsonx.member "wall_clock" j with
              | Some wc -> (
                  match
                    Option.bind
                      (Vstamp_obs.Jsonx.member "recorded_unix_s" wc)
                      Vstamp_obs.Jsonx.to_float
                  with
                  | Some s ->
                      let tm = Unix.localtime s in
                      Printf.sprintf "%04d-%02d-%02d %02d:%02d"
                        (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
                        tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
                  | None -> "-")
              | None -> "-"
            in
            let metrics =
              match BS.of_json j with
              | Ok run -> string_of_int (List.length (BS.metrics run))
              | Error _ -> "-"
            in
            let rev = str "git_rev" in
            [
              string_of_int i;
              str "schema";
              String.sub rev 0 (min 12 (String.length rev));
              recorded;
              metrics;
            ])
          entries
      in
      Stats.pp_table Format.std_formatter
        ~header:[ "#"; "schema"; "git_rev"; "recorded"; "metrics" ]
        rows

let history_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "BENCH_history.jsonl"
      & info [] ~docv:"LEDGER"
          ~doc:"Benchmark ledger (default BENCH_history.jsonl)")
  in
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Show only the newest N entries (0: all)")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"List the runs accumulated in a benchmark ledger, oldest first")
    Term.(const history $ file $ limit)

let cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Benchmark regression tooling over BENCH_core.json runs: diff two \
          runs, gate against a baseline, browse the ledger")
    [ diff_cmd; check_cmd; history_cmd ]
