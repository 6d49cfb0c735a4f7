(* vstamp report: a markdown soak post-mortem from a live soak, a
   --tsdb-out dump, or a `soak --cluster` artifact directory. *)

open Cmdliner
open Common
module Tr = Vstamp_obs.Trace_ctx
module Obs_tsdb = Vstamp_obs.Tsdb
module Obs_alert = Vstamp_obs.Alert

(* One recorded series, uniform across the live (/range.json) and dump
   (--dump) sources: buckets of (t, min, max, avg, last, count). *)
type report_series = {
  rs_name : string;
  rs_kind : string;
  rs_points : (float * float * float * float * float * int) list;
}

let report_points_of_json j =
  match Jx.member "points" j with
  | Some (Jx.List pts) ->
      List.filter_map
        (fun p ->
          let f k = Option.bind (Jx.member k p) Jx.to_float in
          let i k = Option.bind (Jx.member k p) Jx.to_int in
          match (f "t", f "min", f "max", f "avg", f "last", i "count") with
          | Some t, Some mn, Some mx, Some avg, Some last, Some n ->
              Some (t, mn, mx, avg, last, n)
          | _ -> None)
        pts
  | _ -> []

(* One /range.json answer as a series; [None] when it has no points. *)
let report_series_of_json metric j =
  match report_points_of_json j with
  | [] -> None
  | points ->
      let kind =
        match Option.bind (Jx.member "kind" j) Jx.to_str with
        | Some k -> k
        | None -> "?"
      in
      Some { rs_name = metric; rs_kind = kind; rs_points = points }

let report_series_live live ~port ~window_s ~step_s =
  let fetch path = fetch_json live ~port path in
  let index =
    match fetch "/range.json" with Ok j -> j | Error m -> die "%s" m
  in
  let metrics =
    match Jx.member "metrics" index with
    | Some (Jx.List ms) -> List.filter_map Jx.to_str ms
    | _ -> die "GET /range.json: no metrics index in response"
  in
  let series =
    List.filter_map
      (fun metric ->
        match
          fetch
            (Printf.sprintf "/range.json?from=-%g&step=%g&metric=%s" window_s
               step_s metric)
        with
        | Error _ -> None
        | Ok j -> report_series_of_json metric j)
      metrics
  in
  (series, Result.to_option (fetch "/alerts.json"))

(* The one decoder of a --tsdb-out dump.  The error names the step that
   failed, so each caller words it its own way. *)
let decode_dump file =
  match Jsonl.read_file file with
  | Error m -> Error (`Unreadable m)
  | Ok text -> (
      match Jx.of_string (String.trim text) with
      | Error m -> Error (`Bad_json m)
      | Ok j -> Result.map_error (fun m -> `Bad_dump m) (Obs_tsdb.of_json j))

let report_series_dump ~file ~window_s ~step_s =
  match decode_dump file with
  | Error (`Unreadable m | `Bad_dump m) -> die "%s: %s" file m
  | Error (`Bad_json m) -> die "%s: bad JSON: %s" file m
  | Ok (tsdb, alerts) ->
      let series =
        match Obs_tsdb.time_bounds tsdb with
        | None -> []
        | Some (lo, hi) ->
            let from_s =
              if window_s > 0.0 then Stdlib.max lo (hi -. window_s) else lo
            in
            let to_s = hi +. 1e-6 in
            let step_s =
              if step_s > 0.0 then step_s
              else Stdlib.max 1e-9 ((to_s -. from_s) /. 60.0)
            in
            List.filter_map
              (fun name ->
                report_series_of_json name
                  (Obs_tsdb.range_json tsdb ~metric:name ~from_s ~to_s ~step_s))
              (Obs_tsdb.names tsdb)
      in
      (series, alerts)

let report_percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let report_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let report_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

(* The post-mortem document: summary, alert timeline, GC summary, then
   a sparkline block and percentile table per recorded metric. *)
let render_report ~source ~series ~alerts =
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  out "# vstamp soak post-mortem\n\n";
  out "- source: %s\n" source;
  let bounds =
    List.concat_map
      (fun rs -> List.map (fun (t, _, _, _, _, _) -> t) rs.rs_points)
      series
  in
  (match bounds with
  | [] -> out "- window: (no recorded samples)\n"
  | ts ->
      let lo = List.fold_left Float.min infinity ts in
      let hi = List.fold_left Float.max neg_infinity ts in
      out "- window: %s → %s (%.1f s)\n" (report_time lo) (report_time hi)
        (hi -. lo));
  out "- series recorded: %d\n\n" (List.length series);
  (* alerts *)
  out "## Alerts\n\n";
  (match Option.bind alerts (Jx.member "rules") with
  | Some (Jx.List (_ :: _ as rules)) ->
      out "| rule | state | condition | value |\n";
      out "|---|---|---|---|\n";
      List.iter
        (fun r ->
          let str k =
            Option.value ~default:"-"
              (Option.bind (Jx.member k r) Jx.to_str)
          in
          let value =
            match Option.bind (Jx.member "value" r) Jx.to_float with
            | Some v -> report_num v
            | None -> "-"
          in
          out "| %s | %s | `%s` | %s |\n" (str "name") (str "state")
            (str "rule") value)
        rules
  | _ -> out "No alert rules were loaded.\n");
  (match Option.bind alerts (Jx.member "transitions") with
  | Some (Jx.List (_ :: _ as trs)) ->
      out "\n### Timeline\n\n";
      out "| time | rule | transition |\n";
      out "|---|---|---|\n";
      List.iter
        (fun tr ->
          let t =
            match Option.bind (Jx.member "t_s" tr) Jx.to_float with
            | Some t -> report_time t
            | None -> "-"
          in
          let str k =
            Option.value ~default:"-"
              (Option.bind (Jx.member k tr) Jx.to_str)
          in
          out "| %s | %s | %s |\n" t (str "rule") (str "to"))
        trs
  | _ -> ());
  out "\n";
  (* GC summary *)
  let stats_of rs =
    let avgs =
      Array.of_list (List.map (fun (_, _, _, a, _, _) -> a) rs.rs_points)
    in
    Array.sort compare avgs;
    let mins = List.map (fun (_, m, _, _, _, _) -> m) rs.rs_points in
    let maxs = List.map (fun (_, _, m, _, _, _) -> m) rs.rs_points in
    let n = List.fold_left (fun a (_, _, _, _, _, c) -> a + c) 0 rs.rs_points in
    let weighted_sum =
      List.fold_left
        (fun a (_, _, _, avg, _, c) -> a +. (avg *. float_of_int c))
        0.0 rs.rs_points
    in
    let last =
      match List.rev rs.rs_points with
      | (_, _, _, _, l, _) :: _ -> l
      | [] -> 0.0
    in
    ( n,
      List.fold_left Float.min infinity mins,
      (if n = 0 then 0.0 else weighted_sum /. float_of_int n),
      report_percentile avgs 0.5,
      report_percentile avgs 0.95,
      List.fold_left Float.max neg_infinity maxs,
      last )
  in
  let runtime_series =
    List.filter
      (fun rs -> String.starts_with ~prefix:"runtime_" rs.rs_name)
      series
  in
  out "## Runtime / GC\n\n";
  (match runtime_series with
  | [] -> out "No runtime telemetry was recorded.\n\n"
  | rts ->
      out "| metric | last | min | mean | max |\n";
      out "|---|---|---|---|---|\n";
      List.iter
        (fun rs ->
          let _, mn, mean, _, _, mx, last = stats_of rs in
          out "| `%s` | %s | %s | %s | %s |\n" rs.rs_name (report_num last)
            (report_num mn) (report_num mean) (report_num mx))
        rts;
      out "\n");
  (* per-metric blocks *)
  out "## Metrics\n\n";
  List.iter
    (fun rs ->
      out "### `%s` (%s)\n\n" rs.rs_name rs.rs_kind;
      let avgs = List.map (fun (_, _, _, a, _, _) -> a) rs.rs_points in
      out "```\n%s\n```\n\n" (Vstamp_obs.Dash.sparkline ~width:60 avgs);
      let n, mn, mean, p50, p95, mx, last = stats_of rs in
      out "| samples | min | mean | p50 | p95 | max | last |\n";
      out "|---|---|---|---|---|---|---|\n";
      out "| %d | %s | %s | %s | %s | %s | %s |\n\n" n (report_num mn)
        (report_num mean) (report_num p50) (report_num p95) (report_num mx)
        (report_num last))
    series;
  Buffer.contents buf

(* Cluster mode: a cross-node post-mortem from a `soak --cluster`
   artifact directory — merge every node's span log into one
   stamp-ordered timeline, validate it against the wall clocks, and
   summarize each worker's flight-recorder dump. *)
let report_cluster dir output =
  let entries =
    match Sys.readdir dir with
    | files -> List.sort compare (Array.to_list files)
    | exception Sys_error m -> die "--cluster %s: %s" dir m
  in
  let span_files =
    List.filter (fun f -> Filename.check_suffix f ".spans.jsonl") entries
  in
  if span_files = [] then die "--cluster %s: no *.spans.jsonl span logs" dir;
  let spans =
    List.concat_map
      (fun f ->
        match Tmerge.load_file (Filename.concat dir f) with
        | Ok sps -> sps
        | Error m -> die "%s" m)
      span_files
  in
  let merged = Tmerge.merge ~leq:stamp_label_leq spans in
  let rep = Tmerge.validate ~leq:stamp_label_leq spans in
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "# vstamp cluster post-mortem\n\n";
  out "- source: `%s` (%d span logs)\n" dir (List.length span_files);
  out "- spans: %d over %d nodes (%s), %d carrying stamp labels\n"
    rep.Tmerge.rp_spans
    (List.length rep.Tmerge.rp_nodes)
    (String.concat ", " rep.Tmerge.rp_nodes)
    rep.Tmerge.rp_stamped;
  out "- stamp-ordered pairs: %d (%d cross-node — the orderings wall \
       clocks could not justify)\n"
    rep.Tmerge.rp_ordered_pairs rep.Tmerge.rp_cross_node_ordered_pairs;
  out "- contradictions (wall clock vs stamp order): %d\n\n"
    (List.length rep.Tmerge.rp_contradictions);
  (match rep.Tmerge.rp_contradictions with
  | [] -> ()
  | prs ->
      out "## Contradictions\n\n";
      out "| stamp-before | wall-before |\n|---|---|\n";
      List.iter
        (fun (a, b) ->
          out "| %s/%s | %s/%s |\n" a.Tr.sp_node a.Tr.sp_name b.Tr.sp_node
            b.Tr.sp_name)
        prs;
      out "\n");
  out "## Merged timeline (stamp order)\n\n";
  out "| seq | node | span | stamp | ms |\n|---|---|---|---|---|\n";
  let shown = 40 in
  List.iteri
    (fun i sp ->
      if i < shown then
        out "| %d | %s | %s | %s | %.3f |\n" i sp.Tr.sp_node sp.Tr.sp_name
          (match sp.Tr.sp_stamp with
          | Some s -> Printf.sprintf "`%s`" s
          | None -> "-")
          (Int64.to_float (Int64.sub sp.Tr.sp_end_ns sp.Tr.sp_start_ns)
          /. 1e6))
    merged;
  if List.length merged > shown then
    out "\n… %d more spans (full trace: `%s`)\n"
      (List.length merged - shown)
      (Filename.concat dir "trace.chrome.json");
  out "\n## Workers\n\n";
  let tsdbs =
    List.filter (fun f -> Filename.check_suffix f ".tsdb.json") entries
  in
  if tsdbs = [] then out "No per-worker flight-recorder dumps found.\n"
  else begin
    out "| worker | recorded series | window (s) |\n|---|---|---|\n";
    List.iter
      (fun f ->
        let name = Filename.chop_suffix f ".tsdb.json" in
        match decode_dump (Filename.concat dir f) with
        | Error (`Unreadable m) ->
            out "| `%s` | (unreadable: %s: %s) | - |\n" name
              (Filename.concat dir f) m
        | Error (`Bad_json m) -> out "| `%s` | (bad JSON: %s) | - |\n" name m
        | Error (`Bad_dump m) -> out "| `%s` | (%s) | - |\n" name m
        | Ok (tsdb, _) ->
            let window =
              match Obs_tsdb.time_bounds tsdb with
              | Some (lo, hi) -> Printf.sprintf "%.1f" (hi -. lo)
              | None -> "-"
            in
            out "| `%s` | %d | %s |\n" name
              (List.length (Obs_tsdb.names tsdb))
              window)
      tsdbs
  end;
  write_data output (Buffer.contents buf)

let report port dump cluster output window step live =
  match cluster with
  | Some dir ->
      if port <> None || dump <> None then
        die "--cluster is its own source; drop --port/--dump";
      report_cluster dir output
  | None ->
      let window_s =
        match Obs_alert.duration_of_string window with
        | Ok s -> s
        | Error m -> die "--window: %s" m
      in
      let source, (series, alerts) =
        match (port, dump) with
        | Some _, Some _ ->
            die "use either --port (live) or --dump (file), not both"
        | Some port, None ->
            let step_s =
              if step > 0.0 then step else Stdlib.max 0.001 (window_s /. 60.0)
            in
            ( Printf.sprintf "live soak at http://%s:%d" live.host port,
              report_series_live live ~port ~window_s ~step_s )
        | None, Some file ->
            ( Printf.sprintf "tsdb dump `%s`" file,
              report_series_dump ~file ~window_s ~step_s:step )
        | None, None ->
            die
              "need a source: --port for a live soak, --dump for a tsdb \
               dump, --cluster for a cluster directory"
      in
      write_data output (render_report ~source ~series ~alerts)

let cmd =
  let port = live_port ~doc:"Read the history from a live soak's /range.json" in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:"Read the history from a `vstamp soak --tsdb-out` dump")
  in
  let cluster =
    Arg.(
      value
      & opt (some string) None
      & info [ "cluster" ] ~docv:"DIR"
          ~doc:
            "Render a cross-node post-mortem from a `soak --cluster` \
             artifact directory: the stamp-ordered merged timeline, the \
             causal-ordering validation and per-worker summaries")
  in
  let window =
    Arg.(
      value & opt string "10m"
      & info [ "window" ] ~docv:"DURATION"
          ~doc:"How far back to report (e.g. 90s, 10m, 2h)")
  in
  let step =
    Arg.(
      value & opt float 0.0
      & info [ "step" ] ~docv:"SECONDS"
          ~doc:"Bucket width (default: window/60)")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a markdown soak post-mortem — alert timeline, GC \
          summary, and a sparkline block plus percentile table per \
          recorded metric — from a live soak's /range.json and \
          /alerts.json or from a --tsdb-out dump file; or, with \
          --cluster DIR, a cross-node post-mortem with the \
          stamp-ordered merged trace")
    Term.(
      const report $ port $ dump $ cluster
      $ out ~doc:"Write the markdown here (default stdout)"
      $ window $ step $ live)
