module H = Vstamp_core.Causal_history
module Conv = Vstamp_obs.Convergence
module Engine = Vstamp_sync.Engine
module Ledger = Vstamp_sync.Ledger

type config = {
  replicas : int;
  rounds : int;
  p_update : float;
  syncs_per_round : int;
  severity : float;
  seed : int;
  epoch : int;
  max_heal_rounds : int;
}

let default_config =
  {
    replicas = 3;
    rounds = 12;
    p_update = 0.5;
    syncs_per_round = 2;
    severity = 0.6;
    seed = 42;
    epoch = 4;
    max_heal_rounds = 8;
  }

type round_obs = {
  round : int;
  phase : [ `Active | `Heal ];
  lag : int array;
  width : int;
  entropy : float;
  converged_now : bool;
}

type result = {
  replicas : int;
  updates : int;
  syncs : int;
  blocked_syncs : int;
  active_rounds : int;
  heal_rounds : int;
  converged : bool;
  convergence : (int64 * int) option;
  peak_width : int;
  peak_lag : int;
  mean_lag : float;
  peak_entropy : float;
  divergence : Conv.matrix;
  final : Conv.matrix;
  shipped_bytes : int;
  minimal_bytes : int;
  redundant_bytes : int;
  delta_efficiency : float;
}

let bytes_of_bits b = (b + 7) / 8

let run ?registry ?on_round (cfg : config) (Tracker.Packed (module T)) =
  if cfg.replicas < 2 then invalid_arg "Lag.run: need at least 2 replicas";
  let module Tr = Vstamp_obs.Trace_ctx in
  let module J = Vstamp_obs.Jsonx in
  Tr.with_span "lag.run"
    ~attrs:
      [
        ("tracker", J.String T.name);
        ("replicas", J.Int cfg.replicas);
        ("rounds", J.Int cfg.rounds);
      ]
  @@ fun () ->
  (* Each run starts its trackers from the seed, so stamp labels from
     different runs share no causal context even though they are
     formally comparable: scope the labels to this run's span id and
     {!Trace_merge} will only order spans within the scope. *)
  let sync_domain =
    match Tr.current () with
    | Some c -> Some c.Tr.span_id
    | None -> None
  in
  let n = cfg.replicas in
  let weather =
    Weather.make ~seed:cfg.seed ~epoch:cfg.epoch ~severity:cfg.severity ()
  in
  let state = ref (fst T.initial) in
  (* fork the seed into a fixed frontier, so position [i] is the stable
     [replica="i"] of the published gauges *)
  let replicas = Array.make n (snd T.initial) in
  for i = 1 to n - 1 do
    let st, (a, b) = T.fork !state replicas.(i - 1) in
    state := st;
    replicas.(i - 1) <- a;
    replicas.(i) <- b
  done;
  (* the causal-history oracle, in lockstep (fork duplicates, update
     adds a fresh event, sync unions — Definition 2.1) *)
  let hists = Array.make n H.empty in
  let gen = ref H.Gen.initial in
  let timer = Conv.Timer.create () in
  let step = ref 0 in
  let updates = ref 0 in
  let syncs = ref 0 in
  let blocked = ref 0 in
  let tally = Ledger.create () in
  let rng = ref (Rng.make cfg.seed) in
  let draw f =
    let v, rng' = f !rng in
    rng := rng';
    v
  in
  let update i =
    incr step;
    incr updates;
    let st, x = T.update !state replicas.(i) in
    state := st;
    replicas.(i) <- x;
    let e, g = H.Gen.fresh !gen in
    gen := g;
    hists.(i) <- H.add_event e hists.(i);
    Conv.Timer.note_write timer ~step:!step
  in
  let sync_body i j =
    incr step;
    incr syncs;
    let a = replicas.(i) and b = replicas.(j) in
    (* delta ledger: a full-state exchange ships both sides; a
       frontier-exchange protocol ships only what the other side
       misses.  The split is the engine's unified formula with a
       stamp-only charge (the simulation moves no payload). *)
    let relation =
      Vstamp_core.Relation.of_leq_pair ~leq_ab:(T.leq a b) ~leq_ba:(T.leq b a)
    in
    let charge =
      {
        Engine.meta_a = bytes_of_bits (T.size_bits a);
        meta_b = bytes_of_bits (T.size_bits b);
        payload = 0;
      }
    in
    let shipped, minimal =
      Engine.delta (Engine.outcome_of_relation relation) charge
    in
    Ledger.add tally ~shipped ~minimal;
    (* paper-style synchronization of two live replicas: join then fork *)
    let st, joined = T.join !state a b in
    let st, (a', b') = T.fork st joined in
    state := st;
    replicas.(i) <- a';
    replicas.(j) <- b';
    let u = H.union hists.(i) hists.(j) in
    hists.(i) <- u;
    hists.(j) <- u;
    joined
  in
  (* Every sync round is a span carrying the joined state's stamp
     label: after join-then-fork both replicas' histories are exactly
     the joined one, so the label places the round in the causal
     order by stamp [leq] alone — the merge needs no clocks. *)
  let sync i j =
    if not (Tr.attached ()) then ignore (sync_body i j)
    else
      Tr.with_span "lag.sync" ?domain:sync_domain
        ~attrs:[ ("i", J.Int i); ("j", J.Int j) ]
        (fun () ->
          let joined = sync_body i j in
          Tr.set_stamp (Format.asprintf "%a" T.pp joined))
  in
  let lag_sum = ref 0. in
  let rounds_seen = ref 0 in
  let peak_width = ref 1 in
  let peak_lag = ref 0 in
  let peak_entropy = ref 0. in
  (* counters accumulate across runs sharing a registry (the soak
     driver re-runs the scenario every iteration), so publish only the
     growth since the last publication of this run *)
  let publisher =
    Option.map
      (fun reg -> Ledger.publisher ~registry:reg ~prefix:"sim_sync_" ())
      registry
  in
  let publish_delta () =
    match publisher with
    | None -> ()
    | Some p -> Ledger.publish p tally
  in
  let observe ~round ~phase =
    let m = Conv.matrix ~leq:T.leq replicas in
    let lag =
      Conv.staleness ~union:H.union ~cardinal:H.cardinal
        (Array.to_list hists)
    in
    let max_lag = Array.fold_left max 0 lag in
    (* converged = the oracle says every replica knows everything AND
       the mechanism's own order agrees (for accurate trackers these
       coincide; a divergence here would itself be a finding) *)
    let conv_now = max_lag = 0 && Conv.converged m in
    Conv.Timer.note_check timer ~step:!step ~converged:conv_now;
    incr rounds_seen;
    lag_sum :=
      !lag_sum
      +. (if n = 0 then 0.
          else
            float_of_int (Array.fold_left ( + ) 0 lag) /. float_of_int n);
    peak_width := max !peak_width (Conv.width m);
    peak_lag := max !peak_lag max_lag;
    peak_entropy := Float.max !peak_entropy (Conv.entropy m);
    (match registry with
    | None -> ()
    | Some reg ->
        Conv.publish_matrix ~registry:reg m;
        Conv.publish_lag ~registry:reg lag;
        Conv.Timer.publish ~registry:reg timer;
        publish_delta ());
    (match on_round with
    | None -> ()
    | Some f ->
        f
          {
            round;
            phase;
            lag;
            width = Conv.width m;
            entropy = Conv.entropy m;
            converged_now = conv_now;
          });
    (m, conv_now)
  in
  (* --- active phase: writes and weathered syncs --- *)
  let last_active = ref (Conv.matrix ~leq:T.leq replicas) in
  for round = 0 to cfg.rounds - 1 do
    for i = 0 to n - 1 do
      if draw (fun r -> Rng.below r cfg.p_update) then update i
    done;
    for _ = 1 to cfg.syncs_per_round do
      let i = draw (fun r -> Rng.int r n) in
      let j = draw (fun r -> Rng.int r (n - 1)) in
      let j = if j >= i then j + 1 else j in
      if Weather.allowed weather ~step:round ~n i j then sync i j
      else incr blocked
    done;
    let m, _ = observe ~round ~phase:`Active in
    last_active := m
  done;
  (* --- quiescence: the weather clears, gossip sweeps until every pair
     compares equal (two sweeps suffice for join-then-fork syncs: one
     to concentrate all knowledge at replica 0, one to spread it) --- *)
  let heal_rounds = ref 0 in
  let converged = ref (snd (observe ~round:cfg.rounds ~phase:`Heal)) in
  while (not !converged) && !heal_rounds < cfg.max_heal_rounds do
    incr heal_rounds;
    for i = 1 to n - 1 do
      sync 0 i
    done;
    let _, c = observe ~round:(cfg.rounds + !heal_rounds) ~phase:`Heal in
    converged := c
  done;
  let final = Conv.matrix ~leq:T.leq replicas in
  {
    replicas = n;
    updates = !updates;
    syncs = !syncs;
    blocked_syncs = !blocked;
    active_rounds = cfg.rounds;
    heal_rounds = !heal_rounds;
    converged = !converged;
    convergence = (if !converged then Conv.Timer.result timer else None);
    peak_width = !peak_width;
    peak_lag = !peak_lag;
    mean_lag =
      (if !rounds_seen = 0 then 0.
       else !lag_sum /. float_of_int !rounds_seen);
    peak_entropy = !peak_entropy;
    divergence = !last_active;
    final;
    shipped_bytes = tally.Ledger.shipped;
    minimal_bytes = tally.Ledger.minimal;
    redundant_bytes = Ledger.redundant tally;
    delta_efficiency = Ledger.efficiency tally;
  }
