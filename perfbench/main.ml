(* The serve-path benchmark: N [vstamp serve] nodes ([Node.Make] over
   the default backend, the code the CLI runs) hosted in this process
   and talking vstamp-sync/1 over loopback TCP, driven by one closed-loop
   client.  See perfbench/README.md for workloads and metrics. *)

module C = Cluster
module N = C.N
module S = Schedule

(* Set-up is timed by cold builds after timing, in groups of
   [setup_group] builds: a sample is one group's mean, and [setup_s] is
   the median of [setup_samples] samples.  The builds are not one
   population: on pair-bulk the first convergence ships 4 MiB through
   one connection and takes about 0.065 s or about 0.105 s, at random.
   The median of single builds flips between the two; the median of
   group means does not. *)
let setup_samples = 11

let setup_group = 5

let warmup_ops = 16

(* A run that has not finished by then is cut and reported as failed;
   the watchdog ends the process if an op itself never returns. *)
let soft_deadline_s = 150.

let hard_deadline_s = 170.

let heap_cap_mb = 1024.

(* The traced run's accounting gate: sync_now minus the layer spans and
   the per-round floor, as a share of sync_now (median over ops). *)
let max_unaccounted = 0.1

let max_steal_share = 0.05

let started = Host.now ()

(* --- the result line --- *)

let attempted = ref 0

let failed = ref 0

let print_lock = Mutex.create ()

(* The result line, printed once: by the run, or by the watchdog when
   the run overruns.  Returns whether this call printed it. *)
let finish ~correct metrics =
  Mutex.try_lock print_lock
  && begin
       let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
       if not finite then prerr_endline "perfbench: a metric is not finite";
       let metric (name, v, unit) =
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (if Float.is_finite v then v else 0.)
           unit
       in
       Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
         (correct && finite && !failed = 0)
         (max 1 !attempted) !failed
         (String.concat ", " (List.map metric metrics));
       true
     end

let complain fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m)) fmt

(* One sleep to the hard deadline, and a check at the end of every major
   collection: nothing wakes up periodically beside the timed ops. *)
let watchdog () =
  let trip why =
    complain "%s: run cut after %d ops" why !attempted;
    incr failed;
    if finish ~correct:false [] then exit 0
  in
  ignore (Gc.create_alarm (fun () -> if Host.heap_mb () > heap_cap_mb then trip "heap cap"));
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (hard_deadline_s -. (Host.now () -. started));
         trip "wall-clock deadline")
       ())

(* --- one cluster's life --- *)

type ctx = {
  spec : S.spec;
  ops : S.op array;
  names : string array;  (** Key names, built outside the timed region. *)
  preload : string array;
}

type op_run = {
  start : float;
  wall : float;
  cpu : float;
  keys : int;
  put_s : float;
  puts : int;
  syncs : (float * float * float * int) list;  (** start, stop, cpu, rounds *)
  alloc_words : float;
  majors : int;
}

type block = {
  top_heap_mb : float;  (** [Gc] top heap when the block ends. *)
  runs : op_run list;
  sent : int;  (** Bytes the nodes sent, set-up included. *)
  stamp_bytes : int;
  stamps : int;
}

(* The traced run's state: the shadow replicas, and two empty nodes
   whose sync_now between ops gives the per-round floor under the
   run's own heap and cache state (back to back on an idle process it
   reads about half as much). *)
type tracing = {
  tr : Replay.t;
  empty_pair : C.t;
  mutable floors : float list;
  mutable per_op : (float * float * int) list;  (** sync_now wall, layer spans, rounds *)
}

exception Overrun

let cpus = Host.cpus ()

(* Host steal since [s0] (read at wall time [w0]), per processor-second. *)
let steal_share s0 w0 =
  match (s0, Host.steal_s ()) with
  | Some a, Some b -> (b -. a) /. ((Host.now () -. w0) *. float_of_int cpus)
  | _ -> 0.

let problem fmt = Printf.ksprintf (fun m -> complain "%s" m; incr failed) fmt

let check_full ctx cl model =
  List.iter
    (fun m -> problem "%s" (Format.asprintf "%a" Oracle.pp_mismatch m))
    (Oracle.check_full model ~nodes:ctx.spec.nodes
       ~node_keys:(fun n -> N.keys cl.(n).C.node)
       ~get:(fun n k -> N.get cl.(n).C.node k))

(* Node boot, preload through [Node.put], first convergence and a full
   major collection: the span [setup_s] times. *)
let build ctx ?tracing () =
  let start = Host.now () in
  let cl = C.boot ~nodes:ctx.spec.nodes in
  Array.iteri (fun k v -> N.put cl.(0).C.node ~key:ctx.names.(k) v) ctx.preload;
  let rounds = N.sync_now cl.(0).C.node in
  Gc.full_major ();
  let setup_s = Host.now () -. start in
  let model = Oracle.create () in
  Array.iteri (fun k v -> Oracle.set model ctx.names.(k) [ v ]) ctx.preload;
  if rounds < List.length cl.(0).C.peers then problem "setup: %d rounds completed" rounds;
  check_full ctx cl model;
  (match tracing with
  | Some { tr; _ } ->
      Replay.reset_shadows tr;
      Array.iteri (fun k v -> Replay.put tr ~node:0 ~key:ctx.names.(k) v) ctx.preload;
      Replay.sync tr cl ~parent:(-1) 0
  | None -> ());
  (cl, model, setup_s)

let run_op ctx cl model ~label (op : S.op) =
  let names = ctx.names in
  Oracle.apply_writes model (List.map (fun (w : S.write) -> (names.(w.key), w.value)) op.writes);
  let visible = List.map (fun k -> names.(k)) op.visible in
  let errors = C.protocol_errors cl in
  let g0 = Gc.quick_stat () in
  let c0 = Host.cpu_s () in
  let t0 = Host.now () in
  List.iter (fun (w : S.write) -> N.put cl.(w.node).C.node ~key:names.(w.key) w.value) op.writes;
  let t_put = Host.now () in
  let syncs =
    List.map
      (fun i ->
        let c = Host.cpu_s () in
        let s = Host.now () in
        let rounds = N.sync_now cl.(i).C.node in
        let e = Host.now () in
        (s, e, Host.cpu_s () -. c, rounds))
      op.syncs
  in
  let mismatches =
    Oracle.check_keys model ~nodes:ctx.spec.nodes ~get:(fun n k -> N.get cl.(n).C.node k) visible
  in
  let t1 = Host.now () in
  let c1 = Host.cpu_s () in
  let g1 = Gc.quick_stat () in
  let short =
    List.exists2 (fun i (_, _, _, rounds) -> rounds < List.length cl.(i).C.peers) op.syncs syncs
  in
  let errors = C.protocol_errors cl - errors in
  let ok = (not short) && mismatches = [] && errors = 0 in
  if not ok then begin
    problem "%s: %d short syncs, %d protocol errors, %d mismatches" label
      (if short then 1 else 0)
      errors (List.length mismatches);
    List.iter (fun m -> complain "  %s" (Format.asprintf "%a" Oracle.pp_mismatch m)) mismatches
  end;
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    start = t0;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    keys = List.length visible;
    put_s = t_put -. t0;
    puts = List.length op.writes;
    syncs;
    alloc_words = words g1 -. words g0;
    majors = g1.major_collections - g0.major_collections;
  }

(* The traced replay of one op, after the real op: its spans hang off
   the real calls' intervals. *)
let trace_op tg cl (op : S.op) ~names ~index r =
  let tr = tg.tr in
  let f0 = Host.now () in
  ignore (N.sync_now tg.empty_pair.(0).C.node);
  tg.floors <- (Host.now () -. f0) :: tg.floors;
  tr.Replay.recording <- true;
  tr.Replay.op <- index;
  let layers = tr.Replay.layer_s in
  let op_span = Replay.record tr ~parent:(-1) "op" r.start (r.start +. r.wall) in
  ignore (Replay.record tr ~parent:op_span ~calls:r.puts "node.put" r.start (r.start +. r.put_s));
  List.iter (fun (w : S.write) -> Replay.put tr ~node:w.node ~key:names.(w.key) w.value) op.writes;
  List.iter2
    (fun i (s, e, _, _) ->
      let parent = Replay.record tr ~parent:op_span "node.sync_now" s e in
      Replay.sync tr cl ~parent i)
    op.syncs r.syncs;
  tr.Replay.recording <- false;
  tg.per_op <-
    ( List.fold_left (fun acc (s, e, _, _) -> acc +. (e -. s)) 0. r.syncs,
      tr.Replay.layer_s -. layers,
      List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 r.syncs )
    :: tg.per_op;
  List.iter (fun m -> problem "op %d: %s" index m) (Replay.diverged tr cl)

let probe_stamps cl ~nodes =
  List.init nodes (fun i ->
      match C.offered_stamps cl i with
      | Ok stamps -> stamps
      | Error m ->
          problem "stamp probe of node %d: %s" i m;
          [])

(* A cold build from a collected heap, so that each set-up sample pays
   only for its own garbage. *)
let cold_build ctx ?tracing () =
  Gc.full_major ();
  build ctx ?tracing ()

let run_block ctx ?tracing ~deadline () =
  let cl, model, _ = cold_build ctx ?tracing () in
  let runs = ref [] in
  let cut = ref false in
  (try
     Array.iter
       (fun op ->
         if Host.now () > deadline then raise Overrun;
         incr attempted;
         let r = run_op ctx cl model ~label:(Printf.sprintf "op %d" !attempted) op in
         Option.iter (fun tg -> trace_op tg cl op ~names:ctx.names ~index:!attempted r) tracing;
         runs := r :: !runs)
       ctx.ops
   with Overrun -> cut := true);
  check_full ctx cl model;
  C.stop cl;
  (* Sent bytes, not received: [Node.stop] may end a responder before it
     reads the last [Bye]. *)
  let tx = C.tx_bytes cl in
  (match tracing with
  | Some { tr; _ } when tr.Replay.frame_bytes <> tx ->
      problem "shadow frames carry %d bytes, the nodes %d" tr.Replay.frame_bytes tx
  | _ -> ());
  let stamps = probe_stamps cl ~nodes:ctx.spec.nodes in
  (match tracing with
  | Some { tr; _ } ->
      List.iteri
        (fun i real ->
          if real <> Replay.encoded_stamps tr i then
            problem "node %d: shadow stamps differ from the node's" i)
        stamps
  | None -> ());
  let stamps = List.concat stamps in
  if !cut then raise Overrun;
  {
    top_heap_mb = Host.top_heap_mb ();
    runs = List.rev !runs;
    sent = tx;
    stamp_bytes = List.fold_left (fun acc (_, s) -> acc + String.length s) 0 stamps;
    stamps = List.length stamps;
  }

(* Whole blocks until the next one would overrun [budget] seconds; at
   least one. *)
let timed_phase ctx ?tracing ~budget () =
  let t0 = Host.now () in
  let deadline = started +. soft_deadline_s in
  let rec go acc last =
    let elapsed = Host.now () -. t0 in
    if acc <> [] && elapsed +. last > budget then List.rev acc
    else
      match run_block ctx ?tracing ~deadline () with
      | b -> go (b :: acc) (Host.now () -. t0 -. elapsed)
      | exception Overrun ->
          problem "run overran its %.0f s deadline" soft_deadline_s;
          List.rev acc
  in
  go [] 0.

(* --- metrics --- *)

let ms x = x *. 1e3

let us x = x *. 1e6

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let ratio a b = if b = 0. then 0. else a /. b

let p90 walls =
  match Stats.tail_percentile ~p:0.9 walls with
  | Ok v -> v
  | Error m ->
      problem "visible_p90_ms: %s" m;
      if walls = [] then 0. else Stats.percentile ~p:0.9 walls

let end_to_end blocks ~setup_samples ~setup_bytes =
  let first = List.hd blocks in
  if
    List.exists
      (fun b -> b.sent <> first.sent || b.stamp_bytes <> first.stamp_bytes)
      blocks
  then problem "blocks of one run sent different bytes or grew different stamps";
  (* every op of the run: the blocks repeat one op sequence, so the
     figures do not depend on how many blocks the host's speed allowed *)
  let runs = List.concat_map (fun b -> b.runs) blocks in
  let walls = List.map (fun r -> r.wall) runs in
  let keys rs = float_of_int (sumi (fun r -> r.keys) rs) in
  [
    ("visible_p50_ms", ms (Stats.percentile ~p:0.5 walls), "ms");
    ("visible_p90_ms", ms (p90 walls), "ms");
    ("keys_per_s", ratio (keys runs) (Stats.sum walls), "1/s");
    ("cpu_ms_per_key", ms (ratio (sumf (fun r -> r.cpu) runs) (keys runs)), "ms");
    ("wire_bytes_per_key", ratio (float_of_int (first.sent - setup_bytes)) (keys first.runs), "B");
    ("stamp_bytes_per_key", ratio (float_of_int first.stamp_bytes) (float_of_int first.stamps), "B");
    (* after the first block: later blocks repeat its work, and how many
       there are follows the host's speed *)
    ("peak_heap_mb", first.top_heap_mb, "MB");
    ("setup_s", Stats.median setup_samples, "s");
  ]

(* Seconds per call of [f] over every pair, repeated until 20 ms. *)
let per_call f pairs =
  let rec go reps =
    let t0 = Host.now () in
    for _ = 1 to reps do
      List.iter (fun (a, b) -> ignore (Sys.opaque_identity (f a b))) pairs
    done;
    let dt = Host.now () -. t0 in
    if dt < 0.02 then go (reps * 2) else dt /. float_of_int (reps * List.length pairs)
  in
  if pairs = [] then 0. else go 1

let per_layer ~untraced ~traced ~steal_share tg =
  let tr = tg.tr in
  let floor = Stats.median tg.floors in
  let spans = Hashtbl.create 16 in
  List.iter
    (fun (s : Replay.span) ->
      let d, n = Option.value ~default:(0., 0) (Hashtbl.find_opt spans s.name) in
      Hashtbl.replace spans s.name (d +. (s.stop -. s.start), n + 1))
    tr.spans;
  let total name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt spans name)) in
  let calls name = float_of_int (snd (Option.value ~default:(0., 0) (Hashtbl.find_opt spans name))) in
  let rounds = float_of_int tr.rounds in
  let per_round name = ratio (total name) rounds in
  let runs = List.concat_map (fun b -> b.runs) traced in
  let base = List.concat_map (fun b -> b.runs) untraced in
  let syncs = List.concat_map (fun r -> r.syncs) runs in
  let sync_wall = sumf (fun (s, e, _, _) -> e -. s) syncs in
  let sync_cpu = sumf (fun (_, _, c, _) -> c) syncs in
  let ops = float_of_int (List.length runs) in
  let base_keys = float_of_int (sumi (fun r -> r.keys) base) in
  (* Per op, so a stall or a burst of host steal in a few ops does not
     decide the share. *)
  let unaccounted =
    Stats.median
      (List.map
         (fun (sync, layers, rounds) -> ratio (sync -. layers -. (float_of_int rounds *. floor)) sync)
         tg.per_op)
  in
  (* A stolen processor delays the cross-thread wakeups of a real round
     but not the single-threaded replay, so the gate holds only while
     the host leaves the run its processors. *)
  if steal_share > max_steal_share then
    complain "accounting gate not applied: host steal took %.0f%% of the processors"
      (100. *. steal_share)
  else if Float.abs unaccounted > max_unaccounted then
    problem "net.unaccounted_share %.3f: the layers do not add up to sync_now" unaccounted;
  let final = tr.shadows in
  let stamp k i = Replay.KV.stamp final.(i) k in
  let pairs =
    List.filter_map
      (fun k -> match (stamp k 0, stamp k 1) with Some a, Some b -> Some (a, b) | _ -> None)
      (Replay.KV.keys final.(0))
  in
  let bytes_max =
    Array.fold_left
      (fun acc sh ->
        List.fold_left
          (fun acc k ->
            match Replay.KV.stamp sh k with
            | Some st -> max acc (String.length (C.Codec.stamp_to_string st))
            | None -> acc)
          acc (Replay.KV.keys sh))
      0 final
  in
  let walls rs = List.map (fun r -> r.wall) rs in
  [
    ("node.put_us", us (ratio (sumf (fun r -> r.put_s) runs) (float_of_int (sumi (fun r -> r.puts) runs))), "us");
    ("node.digest_us", us (ratio (total "node.digest") (calls "node.digest")), "us");
    ("node.sync_now_ms", ms (ratio sync_wall (float_of_int (List.length syncs))), "ms");
    ("node.round_floor_us", us floor, "us");
    ("node.rounds_per_op", ratio (float_of_int (sumi (fun (_, _, _, r) -> r) syncs)) ops, "count");
    ("node.wait_share", 1. -. ratio sync_cpu sync_wall, "ratio");
    ("engine.offer_ms", ms (per_round "engine.offer"), "ms");
    ("engine.wants_ms", ms (per_round "engine.wants"), "ms");
    ("engine.fulfil_ms", ms (per_round "engine.fulfil"), "ms");
    ("engine.reconcile_ms", ms (per_round "engine.reconcile"), "ms");
    ("engine.apply_ms", ms (per_round "engine.apply"), "ms");
    ("engine.offered_keys", ratio (float_of_int tr.offered) rounds, "count");
    ("engine.wanted_keys", ratio (float_of_int tr.wanted) rounds, "count");
    ("engine.want_ratio", ratio (float_of_int tr.wanted) (float_of_int tr.offered), "ratio");
    ("engine.delta_efficiency", Vstamp_sync.Ledger.efficiency tr.tally, "ratio");
    ("wire.encode_us", us (per_round "wire.encode"), "us");
    ("wire.decode_us", us (per_round "wire.decode"), "us");
    ("wire.stamps_per_round", ratio (float_of_int tr.stamps) rounds, "count");
    ("proto.encode_us", us (per_round "proto.encode"), "us");
    ("proto.decode_us", us (per_round "proto.decode"), "us");
    ("proto.offer_bytes", ratio (float_of_int tr.offer_bytes) rounds, "B");
    ("proto.items_bytes", ratio (float_of_int tr.items_bytes) rounds, "B");
    ("frame.encode_us", us (per_round "frame.encode"), "us");
    ("frame.decode_us", us (per_round "frame.decode"), "us");
    ("stamp.relation_ns", 1e9 *. per_call C.B.Stamp.relation pairs, "ns");
    ("stamp.sync_ns", 1e9 *. per_call (fun a b -> C.B.Stamp.sync a b) pairs, "ns");
    ("stamp.bytes_max", float_of_int bytes_max, "B");
    ("gc.alloc_mb_per_key", ratio (sumf (fun r -> r.alloc_words) base *. float_of_int (Sys.word_size / 8) /. 1e6) base_keys, "MB");
    ("gc.major_per_op", ratio (float_of_int (sumi (fun r -> r.majors) base)) (float_of_int (List.length base)), "count");
    ("net.unaccounted_share", unaccounted, "ratio");
    ("trace.overhead_ratio", ratio (Stats.median (walls runs)) (Stats.median (walls base)), "ratio");
  ]

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME mesh-rewrite | pair-dense | pair-bulk");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match S.find !workload with
    | Some s -> s
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if Vstamp_obs.Trace_ctx.attached () then failwith "trace context must stay detached";
  watchdog ();
  let steal0 = Host.steal_s () and cpu0 = Host.cpu_s () in
  let ctx =
    {
      spec;
      ops = S.block spec ~seed:!seed;
      names = Array.init spec.keys S.key_name;
      preload = Array.init spec.keys (S.preload_value spec ~seed:!seed);
    }
  in
  (* warm-up: one throwaway cluster runs the first ops untimed *)
  let cl, model, _ = build ctx () in
  Array.iteri
    (fun i op ->
      if i < warmup_ops then ignore (run_op ctx cl model ~label:(Printf.sprintf "warm-up op %d" i) op))
    ctx.ops;
  C.stop cl;
  (* set-up is sampled after the timed blocks, so that the number of
     builds, which follows the host's speed, does not move the heap the
     blocks see *)
  let set_up () =
    let build () =
      let cl, _, setup_s = cold_build ctx () in
      C.stop cl;
      (setup_s, C.tx_bytes cl)
    in
    let groups = List.init setup_samples (fun _ -> List.init setup_group (fun _ -> build ())) in
    let bytes = snd (List.hd (List.hd groups)) in
    if List.exists (List.exists (fun (_, b) -> b <> bytes)) groups then
      problem "setup bytes differ between builds";
    let mean g = Stats.sum (List.map fst g) /. float_of_int setup_group in
    (List.map mean groups, bytes)
  in
  let metrics =
    if !trace = 0 then begin
      let blocks = timed_phase ctx ~budget:!seconds () in
      let setup_samples, setup_bytes = set_up () in
      if blocks = [] then [] else end_to_end blocks ~setup_samples ~setup_bytes
    end
    else begin
      let untraced = timed_phase ctx ~budget:(!seconds /. 2.) () in
      let tg =
        { tr = Replay.create ~nodes:spec.nodes; empty_pair = C.boot ~nodes:2; floors = []; per_op = [] }
      in
      let s0 = Host.steal_s () and w0 = Host.now () in
      let traced = timed_phase ctx ~tracing:tg ~budget:(!seconds /. 2.) () in
      let steal_share = steal_share s0 w0 in
      C.stop tg.empty_pair;
      (try Sys.mkdir ".perfbench_out" 0o755 with Sys_error _ -> ());
      Replay.write_spans tg.tr (Filename.concat ".perfbench_out" (spec.name ^ ".spans.tsv"));
      if untraced = [] || traced = [] then [] else per_layer ~untraced ~traced ~steal_share tg
    end
  in
  let steal =
    match (steal0, Host.steal_s ()) with Some a, Some b -> Printf.sprintf "%.2f" (b -. a) | _ -> "n/a"
  in
  Printf.printf "perfbench: workload=%s seed=%d trace=%d ops=%d failed=%d wall_s=%.2f cpu_s=%.2f steal_s=%s\n"
    spec.name !seed !trace !attempted !failed (Host.now () -. started) (Host.cpu_s () -. cpu0) steal;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-24s %14.4f %s\n" name v unit) metrics;
  ignore (finish ~correct:(metrics <> []) metrics)
