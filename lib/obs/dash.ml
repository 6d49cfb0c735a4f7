let clear_screen = "\x1b[H\x1b[2J"

let style color code s =
  if color then Printf.sprintf "\x1b[%sm%s\x1b[0m" code s else s

let bold c = style c "1"

let dim c = style c "2"

let yellow c = style c "33"

let red c = style c "31"

let cyan c = style c "36"

(* 12345678 -> "12.3M": the dashboard favours glanceability over
   digits; exact values are one /stats.json away. *)
let human f =
  let a = Float.abs f in
  if a >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if a >= 1e4 then Printf.sprintf "%.1fk" (f /. 1e3)
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.2f" f

let truncate_line width s =
  if String.length s <= width then s
  else String.sub s 0 (max 0 (width - 1)) ^ "…"

let header_line color health =
  let field name =
    Option.bind health (fun h -> Jsonx.member name h)
  in
  let status =
    match Option.bind (field "status") Jsonx.to_str with
    | Some s -> s
    | None -> "-"
  in
  let num name =
    match Option.bind (field name) Jsonx.to_float with
    | Some f -> human f
    | None -> "-"
  in
  let status_str =
    if status = "ok" then bold color status else red color status
  in
  Printf.sprintf "%s · status %s · up %ss · %s events · %s violations"
    (bold color "vstamp top")
    status_str (num "uptime_s") (num "events_total")
    (num "invariant_violations")

let section color title = Printf.sprintf "%s" (cyan color ("── " ^ title))

(* Rows per table, and the width of a cluster panel line. *)
let max_rows = 12

let cluster_width = 100

let rates_rows deltas =
  let monotone =
    List.filter
      (fun d -> d.Registry.kind <> Registry.Kgauge)
      deltas
  in
  let sorted =
    List.stable_sort
      (fun a b -> compare b.Registry.rate a.Registry.rate)
      monotone
  in
  List.filteri (fun i _ -> i < max_rows) sorted

let gauge_rows deltas =
  let gauges =
    List.filter (fun d -> d.Registry.kind = Registry.Kgauge) deltas
  in
  List.filteri (fun i _ -> i < max_rows) gauges

(* The convergence-observatory families get their own panel: they are
   the signals a partition-weather soak is run to watch, and burying
   them among the other gauges defeats the glance. *)
let divergence_name name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [
      "vstamp_replica_lag";
      "vstamp_divergence_";
      "vstamp_frontier_width";
      "vstamp_convergence_";
    ]
  || String.ends_with ~suffix:"_delta_efficiency" name

let divergence_rows snapshot =
  let fields = match snapshot with Jsonx.Obj kvs -> kvs | _ -> [] in
  List.filter_map
    (fun (name, v) ->
      if divergence_name name then
        Option.map (fun f -> (name, f)) (Jsonx.to_float v)
      else None)
    fields
  |> List.filteri (fun i _ -> i < max_rows)

(* The identity-space families likewise: a churn soak is run to watch
   fragmentation and reclamation, so they get their own panel. *)
let idspace_name name =
  String.starts_with ~prefix:"vstamp_idspace_" name
  || String.starts_with ~prefix:"sim_churn_" name

let idspace_rows snapshot =
  let fields = match snapshot with Jsonx.Obj kvs -> kvs | _ -> [] in
  List.filter_map
    (fun (name, v) ->
      if idspace_name name then
        Option.map (fun f -> (name, f)) (Jsonx.to_float v)
      else None)
    fields
  |> List.filteri (fun i _ -> i < max_rows)

let histogram_rows snapshot =
  let fields = match snapshot with Jsonx.Obj kvs -> kvs | _ -> [] in
  List.filter_map
    (fun (name, v) ->
      match v with
      | Jsonx.Obj _ -> (
          let get k = Option.bind (Jsonx.member k v) Jsonx.to_float in
          match (get "count", get "mean", get "p95", get "max") with
          | Some n, Some mean, Some p95, Some mx ->
              Some (name, n, mean, p95, mx)
          | _ -> None)
      | _ -> None)
    fields
  |> List.filteri (fun i _ -> i < max_rows)

(* Eight-level unicode sparkline.  A flat series renders mid-height so
   "no movement" is visibly distinct from "no data". *)
let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline ?width values =
  let values = List.filter Float.is_finite values in
  let values =
    match width with
    | Some w when w > 0 && List.length values > w ->
        (* keep the newest [w] values *)
        let len = List.length values in
        List.filteri (fun i _ -> i >= len - w) values
    | _ -> values
  in
  match values with
  | [] -> ""
  | vs ->
      let lo = List.fold_left Float.min infinity vs in
      let hi = List.fold_left Float.max neg_infinity vs in
      let buf = Buffer.create (3 * List.length vs) in
      List.iter
        (fun v ->
          let level =
            if hi <= lo then 3
            else
              Stdlib.min 7
                (int_of_float ((v -. lo) /. (hi -. lo) *. 8.))
          in
          Buffer.add_string buf spark_levels.(level))
        vs;
      Buffer.contents buf

(* One row per /range.json series: name, sparkline over the bucket
   averages, and the most recent value. *)
let spark_rows sparks =
  List.filter_map
    (fun (name, values) ->
      match List.filter Float.is_finite values with
      | [] -> None
      | vs -> Some (name, vs))
    sparks
  |> List.filteri (fun i _ -> i < max_rows)

let alert_rows alerts =
  match Jsonx.member "rules" alerts with
  | Some (Jsonx.List rules) ->
      List.filter_map
        (fun r ->
          let str k = Option.bind (Jsonx.member k r) Jsonx.to_str in
          match (str "name", str "state") with
          | Some name, Some state ->
              let spec = Option.value ~default:"" (str "rule") in
              let value = Option.bind (Jsonx.member "value" r) Jsonx.to_float in
              Some (name, state, spec, value)
          | _ -> None)
        rules
  | _ -> []

let render ?(color = true) ?(width = 100) ?(events = [])
    ?health ?alerts ?(sparks = []) ~deltas ~snapshot () =
  let buf = Buffer.create 2048 in
  let line s = Buffer.add_string buf (truncate_line width s ^ "\n") in
  let raw_line s = Buffer.add_string buf (s ^ "\n") in
  raw_line (header_line color health);
  (match Option.map alert_rows alerts with
  | None | Some [] -> ()
  | Some rows ->
      raw_line (section color "alerts");
      List.iter
        (fun (name, state, spec, value) ->
          let mark, state_str =
            match state with
            | "firing" -> (red color "●", red color "firing  ")
            | "pending" -> (yellow color "●", yellow color "pending ")
            | _ -> (dim color "○", dim color "inactive")
          in
          let value_str =
            match value with Some v -> " = " ^ human v | None -> ""
          in
          (* the state dot is multi-byte and the row carries ANSI
             styling; skip byte-truncation *)
          raw_line
            (Printf.sprintf "  %s %-20s %s %s%s" mark
               (truncate_line 20 name) state_str
               (dim color spec) value_str))
        rows);
  let name_w =
    List.fold_left
      (fun acc d -> max acc (String.length d.Registry.name))
      24 deltas
    |> min (width - 26)
  in
  (match rates_rows deltas with
  | [] -> ()
  | rows ->
      raw_line (section color "rates (counters, per second)");
      List.iter
        (fun d ->
          let mark = if d.Registry.reset then yellow color " ↻reset" else "" in
          let rate_str =
            let s = Printf.sprintf "%8s/s" (human d.Registry.rate) in
            if d.Registry.rate = 0.0 then dim color s else s
          in
          line
            (Printf.sprintf "  %-*s %10s %s%s" name_w
               (truncate_line name_w d.Registry.name)
               (human d.Registry.value)
               rate_str mark))
        rows);
  (match gauge_rows deltas with
  | [] -> ()
  | rows ->
      raw_line (section color "gauges");
      List.iter
        (fun d ->
          let ch =
            if d.Registry.change = 0.0 then dim color "        ="
            else
              Printf.sprintf "%9s"
                ((if d.Registry.change > 0.0 then "+" else "")
                ^ human d.Registry.change)
          in
          line
            (Printf.sprintf "  %-*s %10s %s" name_w
               (truncate_line name_w d.Registry.name)
               (human d.Registry.value)
               ch))
        rows);
  (match divergence_rows snapshot with
  | [] -> ()
  | rows ->
      raw_line (section color "divergence (replica lag, pairs, convergence)");
      List.iter
        (fun (name, v) ->
          line
            (Printf.sprintf "  %-*s %10s" name_w (truncate_line name_w name)
               (human v)))
        rows);
  (match idspace_rows snapshot with
  | [] -> ()
  | rows ->
      raw_line (section color "identity space (fragments, bits, churn)");
      List.iter
        (fun (name, v) ->
          line
            (Printf.sprintf "  %-*s %10s" name_w (truncate_line name_w name)
               (human v)))
        rows);
  (match spark_rows sparks with
  | [] -> ()
  | rows ->
      raw_line (section color "history (flight recorder)");
      let spark_w = max 8 (width - name_w - 16) in
      List.iter
        (fun (name, values) ->
          let last = List.nth values (List.length values - 1) in
          (* sparkline glyphs are multi-byte; byte-truncation would cut
             a codepoint in half, so this row manages its own width *)
          raw_line
            (Printf.sprintf "  %-*s %s %10s" name_w
               (truncate_line name_w name)
               (sparkline ~width:spark_w values)
               (human last)))
        rows);
  (match histogram_rows snapshot with
  | [] -> ()
  | rows ->
      raw_line (section color "histograms (n / mean / p95 / max)");
      List.iter
        (fun (name, n, mean, p95, mx) ->
          line
            (Printf.sprintf "  %-*s %8s %9s %9s %9s" name_w
               (truncate_line name_w name)
               (human n) (human mean) (human p95) (human mx)))
        rows);
  (match events with
  | [] -> ()
  | events ->
      raw_line (section color "events (newest last)");
      let tail =
        let len = List.length events in
        if len > max_rows then
          List.filteri (fun i _ -> i >= len - max_rows) events
        else events
      in
      List.iter (fun e -> line (dim color ("  " ^ e))) tail);
  Buffer.contents buf

(* One row of the cluster panel, from a /cluster.json "nodes" entry.
   A down node shows its scrape error instead of health numbers. *)
let cluster_node_row color node =
  let str k = Option.bind (Jsonx.member k node) Jsonx.to_str in
  let id = Option.value ~default:"?" (str "id") in
  let port =
    match Option.bind (Jsonx.member "port" node) Jsonx.to_int with
    | Some p -> string_of_int p
    | None -> "-"
  in
  let up =
    match Option.bind (Jsonx.member "up" node) Jsonx.to_bool with
    | Some b -> b
    | None -> false
  in
  if not up then
    let err = Option.value ~default:"unreachable" (str "error") in
    Printf.sprintf "  %s %-12s %-6s %s" (red color "●")
      (truncate_line 12 id) port
      (red color (truncate_line (cluster_width - 30) err))
  else
    let health = Jsonx.member "health" node in
    let hfield k = Option.bind health (fun h -> Jsonx.member k h) in
    let hnum k =
      match Option.bind (hfield k) Jsonx.to_float with
      | Some f -> human f
      | None -> "-"
    in
    let status =
      Option.value ~default:"-" (Option.bind (hfield "status") Jsonx.to_str)
    in
    let firing =
      match Option.bind (Jsonx.member "alerts_firing" node) Jsonx.to_int with
      | Some 0 | None -> dim color "0"
      | Some n -> red color (string_of_int n)
    in
    let status_str =
      if status = "ok" then status else red color status
    in
    Printf.sprintf "  %s %-12s %-6s %-8s %8s %9s %9s %9s  %s"
      (style color "32" "●")
      (truncate_line 12 id) port status_str (hnum "uptime_s")
      (hnum "iterations") (hnum "events_total") (hnum "requests_total")
      firing

let render_cluster ?(color = true) cluster =
  let buf = Buffer.create 1024 in
  let raw_line s = Buffer.add_string buf (s ^ "\n") in
  let num k =
    match Option.bind (Jsonx.member k cluster) Jsonx.to_int with
    | Some n -> string_of_int n
    | None -> "-"
  in
  let firing =
    match Option.bind (Jsonx.member "alerts_firing" cluster) Jsonx.to_int with
    | Some 0 | None -> dim color "0 firing"
    | Some n -> red color (string_of_int n ^ " firing")
  in
  raw_line
    (Printf.sprintf "%s · %s/%s nodes up · %s"
       (bold color "vstamp cluster")
       (num "nodes_up") (num "nodes_total") firing);
  (match Jsonx.member "trace" cluster with
  | Some (Jsonx.String t) -> raw_line (dim color ("  trace " ^ t))
  | _ -> ());
  raw_line (section color "nodes");
  raw_line
    (dim color
       (Printf.sprintf "  %s %-12s %-6s %-8s %8s %9s %9s %9s  %s" " "
          "node" "port" "status" "up(s)" "iters" "events" "reqs" "alerts"));
  (match Jsonx.member "nodes" cluster with
  | Some (Jsonx.List nodes) ->
      List.iter (fun n -> raw_line (cluster_node_row color n)) nodes
  | _ -> raw_line (dim color "  (no nodes)"));
  Buffer.contents buf
