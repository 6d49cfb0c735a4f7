(* Merging per-node span logs into one causally ordered timeline.

   Nodes have no synchronized clocks, so wall time cannot order spans
   across processes; the version stamps the spans carry can (the
   paper's Prop. 5.1: stamp order coincides with causal-history
   order).  The merge therefore topologically sorts spans along two
   edge families — strict stamp order between spans sharing a trace
   and a stamp domain, and parent links — and uses (wall time, node,
   span id) only to break ties deterministically.

   This library cannot depend on the stamp mechanism (vstamp.obs sits
   below vstamp.core), so the comparison arrives as a callback over
   the text labels: [leq a b = Some true/false] when both labels
   parse, [None] when either does not. *)

type leq = string -> string -> bool option

type report = {
  rp_spans : int;
  rp_nodes : string list;
  rp_stamped : int;
  rp_ordered_pairs : int;
  rp_cross_node_ordered_pairs : int;
  rp_contradictions : (Trace_ctx.span * Trace_ctx.span) list;
}

let load_file = Jsonl.load Trace_ctx.span_of_string

(* deterministic tiebreak: wall time, then node, then span id *)
let span_key s =
  Trace_ctx.(s.sp_start_ns, s.sp_node, s.sp_id, s.sp_name)

(* Stamps are compared only inside one (trace, domain) scope: labels
   from unrelated seed lineages can be formally ordered while sharing
   no causal context, and comparing them would fabricate edges.

   Within a scope, spans are grouped by their label text before any
   comparison happens.  Long-running processes saturate their stamps
   (repeated updates without communication are absorbed), so a span
   log typically carries few distinct labels over many spans —
   comparing label pairs instead of span pairs is what keeps merging
   a multi-thousand-span cluster run sub-second where the naive
   all-pairs scan runs for minutes. *)
let scope_groups arr =
  let scopes : (string, (string, int list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun i s ->
      match (s.Trace_ctx.sp_domain, s.Trace_ctx.sp_stamp) with
      | Some domain, Some label ->
          let key = s.Trace_ctx.sp_trace ^ "\x00" ^ domain in
          let groups =
            match Hashtbl.find_opt scopes key with
            | Some g -> g
            | None ->
                let g = Hashtbl.create 8 in
                Hashtbl.add scopes key g;
                g
          in
          (match Hashtbl.find_opt groups label with
          | Some members -> members := i :: !members
          | None -> Hashtbl.add groups label (ref [ i ]))
      | _ -> ())
    arr;
  scopes

(* The label-pair memo is bounded with the same reset-on-full
   discipline as [Name_packed]'s memo tables: a week-long cluster
   merge with many distinct labels degrades to recomputation instead
   of growing memory without limit. *)
let default_memo_limit = 1 lsl 16

let memo_limit_ref = ref default_memo_limit

let set_memo_limit n =
  if n < 1 then invalid_arg "Trace_merge.set_memo_limit: limit < 1";
  memo_limit_ref := n

let memo_resets_count = ref 0

let memo_resets () = !memo_resets_count

(* iterate [f a_index b_index] over every span pair whose labels are
   strictly ordered within a scope; each distinct label pair is
   compared through [leq] once per memo generation *)
let iter_ordered_pairs ~(leq : leq) scopes f =
  let strict_cache : (string * string, bool) Hashtbl.t =
    Hashtbl.create 64
  in
  let strict la lb =
    match Hashtbl.find_opt strict_cache (la, lb) with
    | Some v -> v
    | None ->
        let v =
          match (leq la lb, leq lb la) with
          | Some true, Some false -> true
          | _ -> false
        in
        if Hashtbl.length strict_cache >= !memo_limit_ref then begin
          Hashtbl.reset strict_cache;
          incr memo_resets_count
        end;
        Hashtbl.add strict_cache (la, lb) v;
        v
  in
  Hashtbl.iter
    (fun _ groups ->
      let labels =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun l members acc -> (l, !members) :: acc) groups [])
      in
      List.iter
        (fun (la, ma) ->
          List.iter
            (fun (lb, mb) ->
              if not (String.equal la lb) && strict la lb then
                List.iter (fun i -> List.iter (fun j -> f i j) mb) ma)
            labels)
        labels)
    scopes

let merge ~leq spans =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let edge i j =
    succs.(i) <- j :: succs.(i);
    indeg.(j) <- indeg.(j) + 1
  in
  let by_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i s -> Hashtbl.replace by_id s.Trace_ctx.sp_id i) arr;
  Array.iteri
    (fun j s ->
      match s.Trace_ctx.sp_parent with
      | Some p -> (
          match Hashtbl.find_opt by_id p with
          | Some i when i <> j -> edge i j
          | _ -> ())
      | None -> ())
    arr;
  iter_ordered_pairs ~leq (scope_groups arr) edge;
  (* Kahn's algorithm, always extracting the ready span with the least
     (wall, node, id) key: the output is a linear extension of the
     causal partial order and is independent of input order. *)
  let module Ready = Set.Make (struct
    type t = (int64 * string * string * string) * int

    let compare = compare
  end) in
  let out = ref [] in
  let remaining = ref n in
  let ready = ref Ready.empty in
  let enqueue i = ready := Ready.add (span_key arr.(i), i) !ready in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then enqueue i
  done;
  let continue = ref true in
  while !continue do
    match Ready.min_elt_opt !ready with
    | None -> continue := false
    | Some ((_, i) as elt) ->
        ready := Ready.remove elt !ready;
        out := i :: !out;
        decr remaining;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then enqueue j)
          succs.(i)
  done;
  (* a cycle cannot arise from a partial order plus parent links, but
     if corrupt input produces one, append the leftovers by key *)
  if !remaining > 0 then begin
    let leftovers = ref [] in
    let emitted = Hashtbl.create n in
    List.iter (fun i -> Hashtbl.replace emitted i ()) !out;
    for i = 0 to n - 1 do
      if not (Hashtbl.mem emitted i) then leftovers := i :: !leftovers
    done;
    let sorted =
      List.sort
        (fun i j -> compare (span_key arr.(i)) (span_key arr.(j)))
        !leftovers
    in
    out := List.rev_append sorted !out
  end;
  List.rev_map (fun i -> arr.(i)) !out

let validate ~leq spans =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  let ordered = ref 0 in
  let cross = ref 0 in
  let contras = ref [] in
  iter_ordered_pairs ~leq (scope_groups arr)
    (fun i j ->
      incr ordered;
      if not (String.equal arr.(i).Trace_ctx.sp_node arr.(j).Trace_ctx.sp_node)
      then incr cross;
      (* wall clock contradicts stamp order only when the causally
         later span finished entirely before the earlier one began —
         overlap is expected for nested or concurrent intervals *)
      if
        Int64.compare arr.(j).Trace_ctx.sp_end_ns
          arr.(i).Trace_ctx.sp_start_ns
        < 0
      then contras := (arr.(i), arr.(j)) :: !contras);
  (* input-order independence: the pair visit order above depends on
     hashing, so the listed contradictions are sorted *)
  let contras =
    List.sort
      (fun (a1, b1) (a2, b2) ->
        match compare (span_key a1) (span_key a2) with
        | 0 -> compare (span_key b1) (span_key b2)
        | c -> c)
      !contras
  in
  let module SS = Set.Make (String) in
  let nodes =
    SS.elements
      (Array.fold_left
         (fun acc s -> SS.add s.Trace_ctx.sp_node acc)
         SS.empty arr)
  in
  {
    rp_spans = n;
    rp_nodes = nodes;
    rp_stamped =
      Array.fold_left
        (fun acc s ->
          match s.Trace_ctx.sp_stamp with Some _ -> acc + 1 | None -> acc)
        0 arr;
    rp_ordered_pairs = !ordered;
    rp_cross_node_ordered_pairs = !cross;
    rp_contradictions = contras;
  }

let report_schema = "vstamp-causal-report/1"

let contradiction_json (a, b) =
  let side s =
    Trace_ctx.(
      Jsonx.Obj
        ([
           ("span", Jsonx.String s.sp_id);
           ("node", Jsonx.String s.sp_node);
           ("name", Jsonx.String s.sp_name);
           ("start_ns", Jsonx.Int (Int64.to_int s.sp_start_ns));
           ("end_ns", Jsonx.Int (Int64.to_int s.sp_end_ns));
         ]
        @ match s.sp_stamp with
          | Some st -> [ ("stamp", Jsonx.String st) ]
          | None -> []))
  in
  Jsonx.Obj [ ("stamp_before", side a); ("wall_before", side b) ]

let report_json r =
  Jsonx.Obj
    [
      ("schema", Jsonx.String report_schema);
      ("spans", Jsonx.Int r.rp_spans);
      ("nodes", Jsonx.List (List.map (fun n -> Jsonx.String n) r.rp_nodes));
      ("stamped", Jsonx.Int r.rp_stamped);
      ("ordered_pairs", Jsonx.Int r.rp_ordered_pairs);
      ("cross_node_ordered_pairs", Jsonx.Int r.rp_cross_node_ordered_pairs);
      ("contradiction_count", Jsonx.Int (List.length r.rp_contradictions));
      ( "contradictions",
        Jsonx.List (List.map contradiction_json r.rp_contradictions) );
    ]

(* --- Chrome trace-event export --- *)

(* One lane ([pid]) per node, spans as complete ("X") events in merged
   order; a [seq] argument records each span's position in the causal
   linearization so the ordering survives Chrome's own re-sorting by
   timestamp. *)
let to_chrome spans =
  let module SS = Set.Make (String) in
  let nodes =
    SS.elements
      (List.fold_left
         (fun acc s -> SS.add s.Trace_ctx.sp_node acc)
         SS.empty spans)
  in
  let lanes = List.mapi (fun i nd -> (i + 1, nd)) nodes in
  let lane = Hashtbl.create 8 in
  List.iter (fun (pid, nd) -> Hashtbl.replace lane nd pid) lanes;
  let slice seq s =
    let open Trace_ctx in
    {
      Chrome.name = s.sp_name;
      cat = "vstamp";
      ts = Int64.to_int (Int64.div s.sp_start_ns 1000L);
      dur =
        max 1
          (Int64.to_int
             (Int64.div (Int64.sub s.sp_end_ns s.sp_start_ns) 1000L));
      pid = Hashtbl.find lane s.sp_node;
      tid = 0;
      args =
        [ ("span", Jsonx.String s.sp_id); ("seq", Jsonx.Int seq) ]
        @ (match s.sp_parent with
          | Some p -> [ ("parent", Jsonx.String p) ]
          | None -> [])
        @ (match s.sp_stamp with
          | Some st -> [ ("stamp", Jsonx.String st) ]
          | None -> [])
        @ s.sp_attrs;
    }
  in
  Chrome.trace ~generator:"vstamp trace merge" ~lanes ~flows:[]
    (List.mapi slice spans)
