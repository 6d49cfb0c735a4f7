(* vstamp — command-line front end for the version-stamp library.  Each
   verb family lives in its own Cmd_* module; the flags two verbs share
   are defined once, in Common. *)

open Cmdliner

let main_cmd =
  Cmd.group
    (Cmd.info "vstamp" ~version:"1.0.0"
       ~doc:
         "Version stamps: decentralized version vectors (Almeida, Baquero, \
          Fonte; ICDCS 2002)")
    [
      Cmd_stamp.figures_cmd;
      Cmd_stamp.relate_cmd;
      Cmd_stamp.update_cmd;
      Cmd_stamp.fork_cmd;
      Cmd_stamp.join_cmd;
      Cmd_stamp.reduce_cmd;
      Cmd_stamp.frontier_cmd;
      Cmd_stamp.encode_cmd;
      Cmd_stamp.decode_cmd;
      Cmd_sim.simulate_cmd;
      Cmd_sim.compare_cmd;
      Cmd_sim.metrics_cmd;
      Cmd_sim.gen_trace_cmd;
      Cmd_sim.draw_cmd;
      Cmd_sim.profile_cmd;
      Cmd_trace.cmd;
      Cmd_bench.cmd;
      Cmd_soak.cmd;
      Cmd_serve.cmd;
      Cmd_live.top_cmd;
      Cmd_live.scrape_cmd;
      Cmd_live.lag_cmd;
      Cmd_live.churn_cmd;
      Cmd_report.cmd;
    ]

let () =
  (* the CLI links unix, so spans get a real wall clock instead of the
     dependency-free Sys.time default *)
  Vstamp_obs.Clock.set_source Unix.gettimeofday;
  (* a path that cannot be opened (an -o or --port-file in a missing
     directory, say) is the user's error, reported in one line *)
  exit
    (try Cmd.eval ~catch:false main_cmd with Sys_error m -> Common.die "%s" m)
