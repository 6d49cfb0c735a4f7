type metric =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Histogram of Metric.histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let default = create ()

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a counter" name)
  | None ->
      let c = Metric.counter () in
      Hashtbl.add t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a gauge" name)
  | None ->
      let g = Metric.gauge () in
      Hashtbl.add t.tbl name (Gauge g);
      g

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a histogram" name)
  | None ->
      let h = Metric.histogram () in
      Hashtbl.add t.tbl name (Histogram h);
      h

let find t name = Hashtbl.find_opt t.tbl name

let value = function
  | Counter c -> float_of_int (Metric.count c)
  | Gauge g -> Metric.value g
  | Histogram h -> float_of_int (Metric.observations h)

let cardinal t = Hashtbl.length t.tbl

let snapshot t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Metric.reset_counter c
      | Gauge g -> Metric.reset_gauge g
      | Histogram h -> Metric.reset_histogram h)
    t.tbl

let clear t = Hashtbl.reset t.tbl

(* --- exposition --- *)

(* split "name{labels}" into the base name and the label text *)
let split_labels name =
  match String.index_opt name '{' with
  | Some i when String.length name > 0 && name.[String.length name - 1] = '}' ->
      ( String.sub name 0 i,
        Some (String.sub name (i + 1) (String.length name - i - 2)) )
  | _ -> (name, None)

let with_label name extra =
  match split_labels name with
  | base, None -> Printf.sprintf "%s{%s}" base extra
  | base, Some labels -> Printf.sprintf "%s{%s,%s}" base labels extra

(* Exposition-format escaping for label values: backslash, double
   quote and line feed, per the Prometheus text-format spec. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_label_value s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else
      match s.[i] with
      | '\\' ->
          if i + 1 >= n then Error "dangling backslash"
          else (
            (match s.[i + 1] with
            | '\\' -> Ok '\\'
            | '"' -> Ok '"'
            | 'n' -> Ok '\n'
            | c -> Error (Printf.sprintf "unknown escape \\%c" c))
            |> function
            | Ok c ->
                Buffer.add_char buf c;
                go (i + 2)
            | Error _ as e -> e)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

let label_value ~base ~label name =
  let prefix = base ^ "{" ^ label ^ "=\"" in
  let pn = String.length prefix and n = String.length name in
  if
    n > pn + 1
    && String.starts_with ~prefix name
    && String.ends_with ~suffix:"\"}" name
  then Result.to_option (unescape_label_value (String.sub name pn (n - pn - 2)))
  else None

let with_labels name labels =
  match labels with
  | [] -> name
  | labels ->
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

let num f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (name, m) ->
      let base, _ = split_labels name in
      match m with
      | Counter c ->
          type_line base "counter";
          Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Metric.count c))
      | Gauge g ->
          type_line base "gauge";
          Buffer.add_string buf (Printf.sprintf "%s %s\n" name (num (Metric.value g)))
      | Histogram h ->
          type_line base "summary";
          let p = Metric.percentiles h in
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" (with_label name "quantile=\"0.5\"") (num p.Metric.p50));
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" (with_label name "quantile=\"0.95\"") (num p.Metric.p95));
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" (with_label name "quantile=\"0.99\"") (num p.Metric.p99));
          let suffix sfx v =
            match split_labels name with
            | base, None -> Printf.sprintf "%s%s %s\n" base sfx v
            | base, Some labels -> Printf.sprintf "%s%s{%s} %s\n" base sfx labels v
          in
          Buffer.add_string buf (suffix "_sum" (num (Metric.sum h)));
          Buffer.add_string buf (suffix "_count" (string_of_int (Metric.observations h)));
          Buffer.add_string buf (suffix "_max" (num (Metric.max_value h))))
    (snapshot t);
  Buffer.contents buf

let histogram_json h =
  let p = Metric.percentiles h in
  Jsonx.Obj
    [
      ("count", Jsonx.Int (Metric.observations h));
      ("sum", Jsonx.Float (Metric.sum h));
      ("mean", Jsonx.Float (Metric.mean h));
      ("min", Jsonx.Float (Metric.min_value h));
      ("max", Jsonx.Float (Metric.max_value h));
      ("p50", Jsonx.Float p.Metric.p50);
      ("p95", Jsonx.Float p.Metric.p95);
      ("p99", Jsonx.Float p.Metric.p99);
    ]

let to_json t =
  Jsonx.Obj
    (List.map
       (fun (name, m) ->
         ( name,
           match m with
           | Counter c -> Jsonx.Int (Metric.count c)
           | Gauge g -> Jsonx.Float (Metric.value g)
           | Histogram h -> histogram_json h ))
       (snapshot t))

let pp_table ppf t =
  let rows =
    List.map
      (fun (name, m) ->
        match m with
        | Counter c -> (name, string_of_int (Metric.count c), "counter")
        | Gauge g -> (name, num (Metric.value g), "gauge")
        | Histogram h ->
            let p = Metric.percentiles h in
            ( name,
              Printf.sprintf "n=%d" (Metric.observations h),
              Printf.sprintf "mean=%s p50=%s p95=%s p99=%s max=%s"
                (num (Metric.mean h)) (num p.Metric.p50) (num p.Metric.p95)
                (num p.Metric.p99) (num (Metric.max_value h)) ))
      (snapshot t)
  in
  let w1 =
    List.fold_left (fun acc (a, _, _) -> max acc (String.length a)) 6 rows
  in
  let w2 =
    List.fold_left (fun acc (_, b, _) -> max acc (String.length b)) 5 rows
  in
  Format.fprintf ppf "%-*s  %-*s  %s@." w1 "metric" w2 "value" "detail";
  List.iter
    (fun (a, b, c) -> Format.fprintf ppf "%-*s  %-*s  %s@." w1 a w2 b c)
    rows

(* --- snapshot differencing --- *)

type kind = Kcounter | Kgauge | Khistogram

type delta = {
  name : string;
  kind : kind;
  value : float;
  change : float;
  rate : float;
  reset : bool;
}

(* Recognize a metric by its to_json shape: counters encode as Int,
   gauges as Float, histograms as an Obj with a "count" field. *)
let classify = function
  | Jsonx.Int n -> Some (Kcounter, float_of_int n)
  | Jsonx.Float f -> Some (Kgauge, f)
  | Jsonx.Obj _ as o -> (
      match Option.bind (Jsonx.member "count" o) Jsonx.to_int with
      | Some n -> Some (Khistogram, float_of_int n)
      | None -> None)
  | _ -> None

let diff ~elapsed_s ~prev cur =
  let fields = function Jsonx.Obj kvs -> kvs | _ -> [] in
  List.filter_map
    (fun (name, v) ->
      match classify v with
      | None -> None
      | Some (kind, value) ->
          let previous =
            match Option.bind (Jsonx.member name prev) classify with
            | Some (k, p) when k = kind -> p
            | _ -> 0.0
          in
          (* Gauges move freely and never "reset". *)
          let change, reset =
            if kind = Kgauge then (value -. previous, false)
            else Metric.increase ~prev:previous value
          in
          let rate = if elapsed_s <= 0.0 then 0.0 else change /. elapsed_s in
          Some { name; kind; value; change; rate; reset })
    (fields cur)
  |> List.sort (fun a b -> String.compare a.name b.name)
