(* Flight recorder: bounded multi-resolution time series over registry
   snapshots.  All storage is allocated when a series is first seen —
   fixed-size rings per tier — so memory is capped for the life of the
   store no matter how long the soak runs. *)

type kind = Counter | Gauge | Histogram

type point = {
  t_s : float;
  min : float;
  max : float;
  sum : float;
  count : int;
  last : float;
}

(* One resolution ring.  [head] is the next write slot; the retained
   points live at [(head - len + i) mod cap] for [i < len], oldest
   first.  The [agg_*] fields accumulate pushes bound for the next
   coarser tier. *)
type tier = {
  ts : float array;
  mins : float array;
  maxs : float array;
  sums : float array;
  lasts : float array;
  counts : int array;
  mutable len : int;
  mutable head : int;
  mutable agg_n : int;
  mutable agg_t : float;
  mutable agg_min : float;
  mutable agg_max : float;
  mutable agg_sum : float;
  mutable agg_count : int;
  mutable agg_last : float;
}

type series = {
  kind : kind;
  tiers : tier array;
  mutable prev : float;  (* last cumulative value seen (counter kinds) *)
}

type t = {
  capacity : int;
  n_tiers : int;
  downsample : int;
  max_series : int;
  tbl : (string, series) Hashtbl.t;
  mutable samples : int;
  mutable dropped : int;
  lock : Mutex.t;
}

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let kind_of_string = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "histogram" -> Some Histogram
  | _ -> None

let make_tier cap =
  {
    ts = Array.make cap 0.;
    mins = Array.make cap 0.;
    maxs = Array.make cap 0.;
    sums = Array.make cap 0.;
    lasts = Array.make cap 0.;
    counts = Array.make cap 0;
    len = 0;
    head = 0;
    agg_n = 0;
    agg_t = 0.;
    agg_min = infinity;
    agg_max = neg_infinity;
    agg_sum = 0.;
    agg_count = 0;
    agg_last = 0.;
  }

let create ?(capacity = 240) ?(tiers = 3) ?(downsample = 12) ?(max_series = 512)
    () =
  if capacity <= 0 then invalid_arg "Tsdb.create: capacity must be positive";
  if tiers <= 0 then invalid_arg "Tsdb.create: tiers must be positive";
  if downsample <= 1 then invalid_arg "Tsdb.create: downsample must be > 1";
  if max_series <= 0 then invalid_arg "Tsdb.create: max_series must be positive";
  {
    capacity;
    n_tiers = tiers;
    downsample;
    max_series;
    tbl = Hashtbl.create 64;
    samples = 0;
    dropped = 0;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Append a pre-aggregated point to one tier, without cascading. *)
let tier_put tier p =
  let cap = Array.length tier.ts in
  let i = tier.head in
  tier.ts.(i) <- p.t_s;
  tier.mins.(i) <- p.min;
  tier.maxs.(i) <- p.max;
  tier.sums.(i) <- p.sum;
  tier.lasts.(i) <- p.last;
  tier.counts.(i) <- p.count;
  tier.head <- (i + 1) mod cap;
  if tier.len < cap then tier.len <- tier.len + 1

let reset_agg tier =
  tier.agg_n <- 0;
  tier.agg_t <- 0.;
  tier.agg_min <- infinity;
  tier.agg_max <- neg_infinity;
  tier.agg_sum <- 0.;
  tier.agg_count <- 0;
  tier.agg_last <- 0.

(* Push a point into tier [i] and cascade [downsample]-point roll-ups
   into the coarser tiers. *)
let rec push t series i p =
  let tier = series.tiers.(i) in
  tier_put tier p;
  if i + 1 < t.n_tiers then begin
    tier.agg_n <- tier.agg_n + 1;
    tier.agg_t <- p.t_s;
    if p.min < tier.agg_min then tier.agg_min <- p.min;
    if p.max > tier.agg_max then tier.agg_max <- p.max;
    tier.agg_sum <- tier.agg_sum +. p.sum;
    tier.agg_count <- tier.agg_count + p.count;
    tier.agg_last <- p.last;
    if tier.agg_n >= t.downsample then begin
      let rolled =
        {
          t_s = tier.agg_t;
          min = tier.agg_min;
          max = tier.agg_max;
          sum = tier.agg_sum;
          count = tier.agg_count;
          last = tier.agg_last;
        }
      in
      reset_agg tier;
      push t series (i + 1) rolled
    end
  end

let get_series t ~kind name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> Some s
  | None ->
      if Hashtbl.length t.tbl >= t.max_series then begin
        t.dropped <- t.dropped + 1;
        None
      end
      else begin
        let s =
          {
            kind;
            tiers = Array.init t.n_tiers (fun _ -> make_tier t.capacity);
            prev = 0.;
          }
        in
        Hashtbl.add t.tbl name s;
        Some s
      end

let observe_locked t ~now_s ~kind name v =
  match get_series t ~kind name with
  | None -> ()
  | Some s ->
      let recorded =
        match s.kind with
        | Gauge -> v
        | Counter | Histogram ->
            (* Store the increase since the previous cumulative value
               (a reset counts whole).  The first observation counts as
               an increase from zero, matching Registry.diff. *)
            let d, _ = Metric.increase ~prev:s.prev v in
            s.prev <- v;
            d
      in
      push t s 0
        {
          t_s = now_s;
          min = recorded;
          max = recorded;
          sum = recorded;
          count = 1;
          last = recorded;
        }

let observe t ~now_s ~kind name v =
  with_lock t (fun () -> observe_locked t ~now_s ~kind name v)

let sample t ?now_s registry =
  let now_s = match now_s with Some s -> s | None -> Clock.now_s () in
  with_lock t (fun () ->
      t.samples <- t.samples + 1;
      List.iter
        (fun (name, m) ->
          let kind =
            match m with
            | Registry.Counter _ -> Counter
            | Registry.Gauge _ -> Gauge
            | Registry.Histogram _ -> Histogram
          in
          observe_locked t ~now_s ~kind name (Registry.value m))
        (Registry.snapshot registry))

let names t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl []
      |> List.sort String.compare)

let series_kind t name =
  with_lock t (fun () ->
      Option.map (fun s -> s.kind) (Hashtbl.find_opt t.tbl name))

let samples_taken t = with_lock t (fun () -> t.samples)

let dropped_series t = with_lock t (fun () -> t.dropped)

let points_retained t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ s acc -> Array.fold_left (fun a tier -> a + tier.len) acc s.tiers)
        t.tbl 0)

let time_bounds t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ s acc ->
          Array.fold_left
            (fun acc tier ->
              if tier.len = 0 then acc
              else
                let cap = Array.length tier.ts in
                let oldest = tier.ts.((tier.head - tier.len + cap) mod cap) in
                let newest = tier.ts.((tier.head - 1 + cap) mod cap) in
                match acc with
                | None -> Some (oldest, newest)
                | Some (lo, hi) ->
                    Some (Stdlib.min lo oldest, Stdlib.max hi newest))
            acc s.tiers)
        t.tbl None)

let footprint_bytes t =
  with_lock t (fun () ->
      (* 5 float arrays + 1 int array of [capacity] slots per tier, 8
         bytes a word plus one header word per array, plus a small
         fixed per-series overhead.  An upper bound that does not move
         once the series set is stable. *)
      let per_tier = (6 * ((t.capacity * 8) + 8)) + 128 in
      let per_series = (t.n_tiers * per_tier) + 128 in
      Hashtbl.length t.tbl * per_series)

let tier_iter_chrono tier f =
  let cap = Array.length tier.ts in
  for i = 0 to tier.len - 1 do
    let j = (tier.head - tier.len + i + cap) mod cap in
    f
      {
        t_s = tier.ts.(j);
        min = tier.mins.(j);
        max = tier.maxs.(j);
        sum = tier.sums.(j);
        count = tier.counts.(j);
        last = tier.lasts.(j);
      }
  done

let tier_oldest tier =
  if tier.len = 0 then None
  else
    let cap = Array.length tier.ts in
    Some tier.ts.((tier.head - tier.len + cap) mod cap)

(* Finest tier that still reaches back to [from_s]; falls back to the
   coarsest non-empty tier when none does. *)
let pick_tier s from_s =
  let n = Array.length s.tiers in
  let rec go i best =
    if i >= n then best
    else
      match tier_oldest s.tiers.(i) with
      | None -> go (i + 1) best
      | Some oldest ->
          if oldest <= from_s then Some s.tiers.(i) else go (i + 1) (Some s.tiers.(i))
  in
  (* prefer fine tiers: scan from 0 and stop at the first that covers *)
  let rec first_covering i =
    if i >= n then None
    else
      match tier_oldest s.tiers.(i) with
      | Some oldest when oldest <= from_s -> Some s.tiers.(i)
      | _ -> first_covering (i + 1)
  in
  match first_covering 0 with Some tier -> Some tier | None -> go 0 None

let query t ~metric ~from_s ~to_s ~step_s =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl metric with
      | None -> []
      | Some s -> (
          match pick_tier s from_s with
          | None -> []
          | Some tier ->
              let span = to_s -. from_s in
              if span <= 0. then []
              else
                let step = if step_s > 0. then step_s else span in
                let n_buckets =
                  Stdlib.min 100_000 (int_of_float (ceil (span /. step)))
                in
                if n_buckets <= 0 then []
                else begin
                  let acc = Array.make n_buckets None in
                  tier_iter_chrono tier (fun p ->
                      if p.t_s >= from_s && p.t_s < to_s then begin
                        let i =
                          Stdlib.min (n_buckets - 1)
                            (int_of_float ((p.t_s -. from_s) /. step))
                        in
                        let merged =
                          match acc.(i) with
                          | None -> p
                          | Some q ->
                              {
                                t_s = Stdlib.max p.t_s q.t_s;
                                min = Stdlib.min p.min q.min;
                                max = Stdlib.max p.max q.max;
                                sum = p.sum +. q.sum;
                                count = p.count + q.count;
                                last = (if p.t_s >= q.t_s then p.last else q.last);
                              }
                        in
                        acc.(i) <- Some merged
                      end);
                  Array.to_list acc |> List.filter_map Fun.id
                end))

let point_json p =
  Jsonx.Obj
    [
      ("t", Jsonx.Float p.t_s);
      ("min", Jsonx.Float p.min);
      ("max", Jsonx.Float p.max);
      ("avg", Jsonx.Float (if p.count = 0 then 0. else p.sum /. float_of_int p.count));
      ("last", Jsonx.Float p.last);
      ("count", Jsonx.Int p.count);
    ]

let range_json t ~metric ~from_s ~to_s ~step_s =
  let kind = series_kind t metric in
  let points = query t ~metric ~from_s ~to_s ~step_s in
  Jsonx.Obj
    [
      ("metric", Jsonx.String metric);
      ( "kind",
        match kind with
        | Some k -> Jsonx.String (kind_to_string k)
        | None -> Jsonx.Null );
      ("from_s", Jsonx.Float from_s);
      ("to_s", Jsonx.Float to_s);
      ("step_s", Jsonx.Float step_s);
      ("points", Jsonx.List (List.map point_json points));
    ]

let index_json t =
  let metric_names = names t in
  Jsonx.Obj
    [
      ("metrics", Jsonx.List (List.map (fun n -> Jsonx.String n) metric_names));
      ("series", Jsonx.Int (List.length metric_names));
      ("samples", Jsonx.Int (samples_taken t));
      ("points", Jsonx.Int (points_retained t));
      ("footprint_bytes", Jsonx.Int (footprint_bytes t));
      ("dropped_series", Jsonx.Int (dropped_series t));
    ]

let schema = "vstamp-tsdb/1"

let to_json ?alerts t =
  with_lock t (fun () ->
      let series_json =
        Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, s) ->
               let tiers_json =
                 Array.to_list s.tiers
                 |> List.map (fun tier ->
                        let pts = ref [] in
                        tier_iter_chrono tier (fun p ->
                            pts :=
                              Jsonx.List
                                [
                                  Jsonx.Float p.t_s;
                                  Jsonx.Float p.min;
                                  Jsonx.Float p.max;
                                  Jsonx.Float p.sum;
                                  Jsonx.Int p.count;
                                  Jsonx.Float p.last;
                                ]
                              :: !pts);
                        Jsonx.List (List.rev !pts))
               in
               ( name,
                 Jsonx.Obj
                   [
                     ("kind", Jsonx.String (kind_to_string s.kind));
                     ("tiers", Jsonx.List tiers_json);
                   ] ))
      in
      let base =
        [
          ("schema", Jsonx.String schema);
          ("capacity", Jsonx.Int t.capacity);
          ("tiers", Jsonx.Int t.n_tiers);
          ("downsample", Jsonx.Int t.downsample);
          ("samples", Jsonx.Int t.samples);
          ("series", Jsonx.Obj series_json);
        ]
      in
      let base =
        match alerts with Some a -> base @ [ ("alerts", a) ] | None -> base
      in
      Jsonx.Obj base)

let of_json json =
  let ( let* ) = Result.bind in
  let int_field name =
    match Jsonx.member name json with
    | Some v -> (
        match Jsonx.to_int v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "tsdb dump: %s is not an int" name))
    | None -> Error (Printf.sprintf "tsdb dump: missing %s" name)
  in
  let* () =
    match Jsonx.member "schema" json with
    | Some (Jsonx.String s) when s = schema -> Ok ()
    | Some (Jsonx.String s) ->
        Error (Printf.sprintf "tsdb dump: unsupported schema %S" s)
    | _ -> Error "tsdb dump: missing schema"
  in
  let* capacity = int_field "capacity" in
  let* tiers = int_field "tiers" in
  let* downsample = int_field "downsample" in
  let* samples = int_field "samples" in
  let* series =
    match Jsonx.member "series" json with
    | Some (Jsonx.Obj fields) -> Ok fields
    | _ -> Error "tsdb dump: missing series object"
  in
  let t =
    try Ok (create ~capacity ~tiers ~downsample ())
    with Invalid_argument m -> Error ("tsdb dump: " ^ m)
  in
  let* t = t in
  t.samples <- samples;
  let parse_point = function
    | Jsonx.List [ tj; minj; maxj; sumj; countj; lastj ] -> (
        match
          ( Jsonx.to_float tj,
            Jsonx.to_float minj,
            Jsonx.to_float maxj,
            Jsonx.to_float sumj,
            Jsonx.to_int countj,
            Jsonx.to_float lastj )
        with
        | Some t_s, Some min, Some max, Some sum, Some count, Some last ->
            Ok { t_s; min; max; sum; count; last }
        | _ -> Error "tsdb dump: malformed point")
    | _ -> Error "tsdb dump: malformed point"
  in
  let* () =
    List.fold_left
      (fun acc (name, sj) ->
        let* () = acc in
        let* kind =
          match Jsonx.member "kind" sj with
          | Some (Jsonx.String k) -> (
              match kind_of_string k with
              | Some k -> Ok k
              | None -> Error (Printf.sprintf "tsdb dump: bad kind %S" k))
          | _ -> Error "tsdb dump: series missing kind"
        in
        let* tier_lists =
          match Jsonx.member "tiers" sj with
          | Some (Jsonx.List ls) -> Ok ls
          | _ -> Error "tsdb dump: series missing tiers"
        in
        match get_series t ~kind name with
        | None -> Ok ()
        | Some s ->
            List.fold_left
              (fun acc (i, tier_json) ->
                let* () = acc in
                if i >= Array.length s.tiers then Ok ()
                else
                  match tier_json with
                  | Jsonx.List pts ->
                      List.fold_left
                        (fun acc pj ->
                          let* () = acc in
                          let* p = parse_point pj in
                          tier_put s.tiers.(i) p;
                          Ok ())
                        (Ok ()) pts
                  | _ -> Error "tsdb dump: tier is not a list")
              (Ok ())
              (List.mapi (fun i tj -> (i, tj)) tier_lists))
      (Ok ()) series
  in
  Ok (t, Jsonx.member "alerts" json)
