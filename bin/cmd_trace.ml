(* vstamp trace: causal-trace forensics — record a run's event DAG,
   replay it byte-identically, explain how two states relate, export it
   for Graphviz or Perfetto. *)

open Cmdliner
open Vstamp_core
open Vstamp_sim
open Common
module CT = Vstamp_obs.Causal_trace

let load_causal file =
  match Jsonl.read_file file with
  | Error m -> die "%s: %s" file m
  | Ok s -> (
      match CT.of_jsonl s with
      | Ok tr -> tr
      | Error m -> die "%s: %s" file m)

let causal_file =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_JSONL")

let record tracker workload seed n_ops trace_file check_invariants
    violation_out ops_out output =
  let ops = or_die (load_ops ~workload ~seed ~n_ops trace_file) in
  exit_on_violation (fun () ->
      let tr, (_ : System.result) =
        Forensics.record ~check_invariants ?violation_out tracker ops
      in
      (match ops_out with
      | Some file -> Trace.save ~file ops
      | None -> ());
      write_data output (CT.to_jsonl tr);
      match output with
      | Some file ->
          Format.printf "recorded %d ops as %d nodes to %s@."
            (List.length ops) (CT.length tr) file
      | None -> ())

let record_cmd =
  let ops_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "ops-out" ] ~docv:"FILE"
          ~doc:"Also save the op sequence as a replayable trace file")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a workload and record its causal event DAG (one JSONL node \
          event per replica state, deterministic logical-step timestamps)")
    Term.(
      const record $ tracker $ workload $ seed ~default:1 $ n_ops ~default:400
      $ trace_file $ check_invariants $ violation_out $ ops_out $ output)

let replay tracker file output =
  match Forensics.replay ~check_invariants:true tracker (load_causal file) with
  | Error m -> die "%s: %s" file m
  | Ok r ->
      (match output with
      | Some _ -> write_data output (CT.to_jsonl r.Forensics.replayed)
      | None -> ());
      let u, f, j = Trace.stats r.Forensics.ops in
      if r.Forensics.identical then
        Format.printf
          "replay OK: %d ops (u=%d f=%d j=%d) over %s, %d nodes, \
           byte-identical event stream@."
          (List.length r.Forensics.ops)
          u f j (Tracker.name tracker)
          (CT.length r.Forensics.replayed)
      else begin
        Format.printf
          "replay MISMATCH: reconstructed %d ops (u=%d f=%d j=%d) over \
           %s but the re-recorded stream differs@."
          (List.length r.Forensics.ops)
          u f j (Tracker.name tracker);
        exit 1
      end

let replay_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the re-recorded JSONL to FILE")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Reconstruct the op sequence from a recorded causal trace, re-run \
          it with invariant monitors on over the recording's mechanism \
          (-t must match it), and verify the event stream is \
          byte-identical (exit 1 if not)")
    Term.(const replay $ tracker $ causal_file $ output)

let explain file sel_a sel_b =
  match Forensics.explain (load_causal file) sel_a sel_b with
  | Error m -> die "%s" m
  | Ok e -> (
      Format.printf "%a@." Forensics.pp_explanation e;
      (* When both labels parse as stamps, confirm Proposition 5.1:
         the stamp order must coincide with the causal-history
         relation the DAG walk just derived. *)
      match
        ( Vstamp_codec.Text.stamp_of_string e.Forensics.a.CT.label,
          Vstamp_codec.Text.stamp_of_string e.Forensics.b.CT.label )
      with
      | Ok sa, Ok sb ->
          let stamp_rel = Stamp.relation sa sb in
          Format.printf "stamp order: A is %s relative to B (%s)@."
            (Relation.to_paper_string stamp_rel)
            (if Relation.equal stamp_rel e.Forensics.relation then
               "agrees with the causal history, as Prop. 5.1 promises"
             else "DISAGREES with the causal history")
      | _ -> ())

let explain_cmd =
  let sel n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain how two recorded states relate: the update events one has \
          and the other lacks, where their lineages diverged, and the joins \
          that folded knowledge.  Select states by node id (#7) or by stamp \
          label ('[1|01+1]')")
    Term.(const explain $ causal_file $ sel 1 "A" $ sel 2 "B")

let export file format output =
  let tr = load_causal file in
  let data =
    match format with
    | `Dot -> CT.to_dot tr
    | `Chrome -> Vstamp_obs.Jsonx.to_string (CT.to_chrome tr) ^ "\n"
    | `Jsonl -> CT.to_jsonl tr
  in
  write_data output data;
  match output with
  | Some f -> Format.printf "wrote %d nodes to %s@." (CT.length tr) f
  | None -> ()

let export_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Dot
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: dot (Graphviz), chrome (trace-event JSON, loads \
             in Perfetto / chrome://tracing), or jsonl (canonical form)")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert a recorded causal trace to DOT, Chrome trace JSON or JSONL")
    Term.(const export $ causal_file $ format $ output)

let cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Causal-trace forensics: record a run's event DAG, replay it \
          byte-identically, explain the relation between two states, export \
          for Graphviz or Perfetto")
    [ record_cmd; replay_cmd; explain_cmd; export_cmd ]
