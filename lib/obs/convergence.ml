type pair_kind = Equal | Dominates | Dominated | Concurrent

let classify ~leq_ab ~leq_ba =
  match (leq_ab, leq_ba) with
  | true, true -> Equal
  | false, true -> Dominates
  | true, false -> Dominated
  | false, false -> Concurrent

let kind_slug = function
  | Equal -> "equal"
  | Dominates -> "dominates"
  | Dominated -> "dominated"
  | Concurrent -> "concurrent"

let all_kinds = [ Equal; Dominates; Dominated; Concurrent ]

type matrix = { n : int; cells : pair_kind array array }

let matrix ~leq xs =
  let n = Array.length xs in
  let cells =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then Equal
            else classify ~leq_ab:(leq xs.(i) xs.(j)) ~leq_ba:(leq xs.(j) xs.(i))))
  in
  { n; cells }

let size m = m.n

let cell m i j = m.cells.(i).(j)

let fold_pairs f acc m =
  let acc = ref acc in
  for i = 0 to m.n - 1 do
    for j = i + 1 to m.n - 1 do
      acc := f !acc m.cells.(i).(j)
    done
  done;
  !acc

let pair_counts m =
  let count k = fold_pairs (fun n k' -> if k = k' then n + 1 else n) 0 m in
  List.map (fun k -> (k, count k)) all_kinds

let converged m = fold_pairs (fun ok k -> ok && k = Equal) true m

let width m =
  if m.n = 0 then 0
  else begin
    (* maximal = not strictly below any other replica *)
    let maximal =
      Array.init m.n (fun i ->
          let below = ref false in
          for j = 0 to m.n - 1 do
            if j <> i && m.cells.(i).(j) = Dominated then below := true
          done;
          not !below)
    in
    (* count equivalence classes among the maximal replicas: a maximal
       replica is a fresh class unless an earlier maximal one equals it *)
    let classes = ref 0 in
    for i = 0 to m.n - 1 do
      if maximal.(i) then begin
        let seen = ref false in
        for j = 0 to i - 1 do
          if maximal.(j) && m.cells.(i).(j) = Equal then seen := true
        done;
        if not !seen then incr classes
      end
    done;
    !classes
  end

let entropy m =
  let pairs = m.n * (m.n - 1) / 2 in
  if pairs = 0 then 0.
  else
    List.fold_left
      (fun h (_, c) ->
        if c = 0 then h
        else
          let p = float_of_int c /. float_of_int pairs in
          h -. (p *. (Float.log p /. Float.log 2.)))
      0. (pair_counts m)

let cell_char = function
  | Equal -> '='
  | Dominates -> '>'
  | Dominated -> '<'
  | Concurrent -> '#'

let pp_matrix ppf m =
  Format.fprintf ppf "    ";
  for j = 0 to m.n - 1 do
    Format.fprintf ppf "%3d" j
  done;
  Format.pp_print_newline ppf ();
  for i = 0 to m.n - 1 do
    Format.fprintf ppf "%3d " i;
    for j = 0 to m.n - 1 do
      let c = if i = j then '.' else cell_char m.cells.(i).(j) in
      Format.fprintf ppf "  %c" c
    done;
    Format.pp_print_newline ppf ()
  done

let matrix_to_json m =
  let row i =
    String.init m.n (fun j ->
        if i = j then '.' else cell_char m.cells.(i).(j))
  in
  Jsonx.Obj
    [
      ("n", Jsonx.Int m.n);
      ("rows", Jsonx.List (List.init m.n (fun i -> Jsonx.String (row i))));
    ]

(* --- staleness --- *)

let staleness ~union ~cardinal = function
  | [] -> [||]
  | h :: rest ->
      let total = cardinal (List.fold_left union h rest) in
      Array.of_list
        (List.map (fun hi -> total - cardinal hi) (h :: rest))

(* --- convergence timing --- *)

module Timer = struct
  type t = {
    mutable last_write : (int * int64) option;
    mutable converged_at : (int * int64) option;
  }

  let create () = { last_write = None; converged_at = None }

  let note_write t ~step =
    t.last_write <- Some (step, Clock.now_ns ());
    t.converged_at <- None

  let note_check t ~step ~converged =
    if converged then begin
      if t.converged_at = None then
        t.converged_at <- Some (step, Clock.now_ns ())
    end
    else t.converged_at <- None

  let result t =
    match (t.last_write, t.converged_at) with
    | Some (ws, wns), Some (cs, cns) ->
        Some (Int64.sub cns wns, cs - ws)
    | _ -> None

  let publish ?(registry = Registry.default) t =
    match result t with
    | None -> ()
    | Some (ns, steps) ->
        Metric.set
          (Registry.gauge registry "vstamp_convergence_ns")
          (Int64.to_float ns);
        Metric.set
          (Registry.gauge registry "vstamp_convergence_steps")
          (float_of_int steps)
end

(* --- gauge publication --- *)

let publish_matrix ?(registry = Registry.default) m =
  List.iter
    (fun (k, c) ->
      Metric.set
        (Registry.gauge registry
           (Registry.with_labels "vstamp_divergence_pairs"
              [ ("kind", kind_slug k) ]))
        (float_of_int c))
    (pair_counts m);
  Metric.set
    (Registry.gauge registry "vstamp_frontier_width")
    (float_of_int (width m));
  Metric.set (Registry.gauge registry "vstamp_divergence_entropy") (entropy m)

let publish_lag ?(registry = Registry.default) lags =
  Array.iteri
    (fun i lag ->
      Metric.set
        (Registry.gauge registry
           (Registry.with_labels "vstamp_replica_lag"
              [ ("replica", string_of_int i) ]))
        (float_of_int lag))
    lags

(* --- /lag.json --- *)

let lag_json registry =
  let replica_lag = ref [] in
  let pairs = ref [] in
  let width = ref Jsonx.Null in
  let entropy = ref Jsonx.Null in
  let conv_ns = ref Jsonx.Null in
  let conv_steps = ref Jsonx.Null in
  let delta = ref [] in
  List.iter
    (fun (name, metric) ->
      let v = Registry.value metric in
      match
        Registry.label_value ~base:"vstamp_replica_lag" ~label:"replica" name
      with
      | Some r -> replica_lag := (r, Jsonx.Float v) :: !replica_lag
      | None -> (
          match
            Registry.label_value ~base:"vstamp_divergence_pairs" ~label:"kind"
              name
          with
          | Some k -> pairs := (k, Jsonx.Float v) :: !pairs
          | None ->
              if name = "vstamp_frontier_width" then width := Jsonx.Float v
              else if name = "vstamp_divergence_entropy" then
                entropy := Jsonx.Float v
              else if name = "vstamp_convergence_ns" then
                conv_ns := Jsonx.Float v
              else if name = "vstamp_convergence_steps" then
                conv_steps := Jsonx.Float v
              else if
                String.ends_with ~suffix:"_delta_efficiency" name
                || String.ends_with ~suffix:"_shipped_bytes_total" name
                || String.ends_with ~suffix:"_minimal_bytes_total" name
                || String.ends_with ~suffix:"_redundant_bytes_total" name
              then delta := (name, Jsonx.Float v) :: !delta))
    (Registry.snapshot registry);
  Jsonx.Obj
    [
      ("replica_lag", Jsonx.Obj (List.rev !replica_lag));
      ("divergence_pairs", Jsonx.Obj (List.rev !pairs));
      ("frontier_width", !width);
      ("divergence_entropy", !entropy);
      ("convergence_ns", !conv_ns);
      ("convergence_steps", !conv_steps);
      ("sync_delta", Jsonx.Obj (List.rev !delta));
    ]
