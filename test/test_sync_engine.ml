(* The shared anti-entropy engine: the delta ledger's arithmetic, and
   the headline refactor property — a session split into wire legs
   (offer / wants / fulfil / reconcile / apply, what [Vstamp_net] ships
   between processes) produces stores identical to the in-process
   [Stamped_kv.sync], while never shipping more than a full-state
   exchange of the two replicas.  The ordered walks of [offer], [wants]
   and [reconcile] are checked against the legs they replaced, on the
   ascending frontiers an initiator sends; any other order raises. *)

open Vstamp_kvs
module Ledger = Vstamp_sync.Ledger
module Registry = Vstamp_obs.Registry
module Metric = Vstamp_obs.Metric
module St = Vstamp_core.Stamp.Over_tree

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- the ledger --- *)

let test_ledger_tally () =
  let t = Ledger.create () in
  check_int "redundant empty" 0 (Ledger.redundant t);
  Alcotest.(check (float 0.)) "efficiency empty" 1.0 (Ledger.efficiency t);
  Ledger.add t ~shipped:10 ~minimal:4;
  Ledger.add t ~shipped:6 ~minimal:6;
  check_int "shipped" 16 t.Ledger.shipped;
  check_int "minimal" 10 t.Ledger.minimal;
  check_int "entries" 2 t.Ledger.entries;
  check_int "redundant" 6 (Ledger.redundant t);
  Alcotest.(check (float 1e-9))
    "efficiency" (10. /. 16.) (Ledger.efficiency t)

let test_ledger_counters () =
  let r = Registry.create () in
  let c = Ledger.counters ~registry:r ~prefix:"x_" () in
  Ledger.round c;
  Ledger.round c;
  Ledger.account c ~shipped:8 ~minimal:2;
  check_int "rounds" 2 (Metric.count (Registry.counter r "x_rounds_total"));
  check_int "shipped" 8 (Metric.count (Registry.counter r "x_shipped_bytes_total"));
  check_int "minimal" 2 (Metric.count (Registry.counter r "x_minimal_bytes_total"));
  check_int "redundant" 6
    (Metric.count (Registry.counter r "x_redundant_bytes_total"));
  Alcotest.(check (float 1e-9))
    "efficiency gauge" 0.25
    (Metric.value (Registry.gauge r "x_delta_efficiency"))

let test_ledger_publisher () =
  let r = Registry.create () in
  let p = Ledger.publisher ~registry:r ~prefix:"y_" () in
  let t = Ledger.create () in
  Ledger.add t ~shipped:10 ~minimal:4;
  Ledger.publish p t;
  Ledger.add t ~shipped:5 ~minimal:5;
  Ledger.publish p t;
  (* growth-only publication: totals equal the tally, not double *)
  check_int "shipped" 15 (Metric.count (Registry.counter r "y_shipped_bytes_total"));
  check_int "minimal" 9 (Metric.count (Registry.counter r "y_minimal_bytes_total"));
  check_int "redundant" 6
    (Metric.count (Registry.counter r "y_redundant_bytes_total"))

(* --- wire legs vs in-process session --- *)

module KV = Stamped_kv

let put s (k, v) = KV.put s ~key:k v

let build stores = List.fold_left put KV.empty stores

(* Observable store state: keys, candidate sets, and the exact stamps. *)
let state s =
  List.map (fun k -> (k, List.sort compare (KV.get s k), KV.stamp s k)) (KV.keys s)

let same_store what x y =
  Alcotest.(check bool) what true (state x = state y)

let wire_session a b =
  let frontier = KV.offer a in
  let wanted = KV.wants b frontier in
  let items = KV.fulfil a wanted in
  let tally = Ledger.create () in
  let b', results = KV.reconcile ~tally b frontier items in
  let a' = KV.apply a results in
  (a', b', tally)

let meta_bytes st = (St.size_bits st + 7) / 8

(* What a naive exchange ships: both replicas' entire stores — every
   stamp and every candidate value, both directions. *)
let full_state_bytes s =
  List.fold_left
    (fun acc k ->
      let m = match KV.stamp s k with Some st -> meta_bytes st | None -> 0 in
      let p =
        List.fold_left (fun n v -> n + String.length v) 0 (KV.get s k)
      in
      acc + m + p)
    0 (KV.keys s)

let build_on s ops = List.fold_left put s ops

let divergent_pair () =
  let base = build [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ] in
  let a, b = KV.sync base KV.empty in
  (* diverge: overwrite on both sides, plus disjoint new keys *)
  let a = build_on a [ ("k1", "a-side"); ("only-a", "x") ]
  and b = build_on b [ ("k1", "b-side"); ("k2", "newer"); ("only-b", "y") ] in
  (a, b)

let test_wire_equals_inprocess () =
  let a, b = divergent_pair () in
  let a1, b1 = KV.sync a b in
  let a2, b2, tally = wire_session a b in
  same_store "initiator stores agree" a1 a2;
  same_store "responder stores agree" b1 b2;
  check_bool "converged" true (KV.converged a2 b2);
  check_bool "shipped bounded by full state" true
    (tally.Ledger.shipped <= full_state_bytes a + full_state_bytes b);
  check_bool "minimal <= shipped" true
    (tally.Ledger.minimal <= tally.Ledger.shipped)

let test_wire_second_round_ships_no_payload () =
  let a, b = divergent_pair () in
  let a, b, _ = wire_session a b in
  let a', b', tally = wire_session a b in
  same_store "initiator stable" a a';
  same_store "responder stable" b b';
  (* everything equal with matching digests: the minimal delta is 0 *)
  check_int "minimal second round" 0 tally.Ledger.minimal

(* --- stamp-only results ---

   A result whose candidates are exactly the ones the initiator shipped
   goes back with its stamp alone; every other result carries its
   candidates. *)

(* [a] offers to [b] over the wire legs: [key]'s result entry, and
   whether [apply] left [a] as an in-process [sync] does. *)
let result_for ~a ~b key =
  let frontier = KV.offer a in
  let items = KV.fulfil a (KV.wants b frontier) in
  let _, results = KV.reconcile b frontier items in
  let a' = KV.apply a results in
  let entries = List.filter (fun (k, _, _) -> k = key) results in
  (List.map (fun (_, _, vs) -> vs) entries, state a' = state (fst (KV.sync a b)))

(* Both sides hold [k] from one shared write, then [ops_a]/[ops_b]. *)
let shared ops_a ops_b =
  let a, b = KV.sync (build [ ("k", "v0") ]) KV.empty in
  (build_on a ops_a, build_on b ops_b)

let result_case name (a, b) expected () =
  let values, same = result_for ~a ~b "k" in
  Alcotest.(check (list (list string))) name [ expected ] values;
  check_bool "apply = in-process sync" true same

let stamp_only_cases =
  [
    ("initiator dominates", shared [ ("k", "a1") ] [], []);
    ("initiator only", (build [ ("k", "x") ], KV.empty), []);
    ("concurrent", shared [ ("k", "a1") ] [ ("k", "b1") ], [ "a1"; "b1" ]);
    ("responder dominates", shared [] [ ("k", "b1") ], [ "b1" ]);
    ("responder only", (KV.empty, build [ ("k", "y") ]), [ "y" ]);
  ]

let test_apply_stamp_only_absent () =
  let s = build [ ("k", "v") ] in
  let stamp = Option.get (KV.stamp s "k") in
  let s' = KV.apply s [ ("absent", stamp, []) ] in
  same_store "store unchanged" s s';
  check_int "key count" 1 (KV.cardinal s');
  check_int "digest" (KV.digest s) (KV.digest s')

(* --- the qcheck equivalence property --- *)

let gen_key = QCheck2.Gen.oneofl [ "alpha"; "beta"; "gamma"; "delta"; "eps" ]

let gen_op =
  QCheck2.Gen.(pair gen_key (string_size ~gen:printable (int_bound 8)))

let gen_scenario =
  QCheck2.Gen.(
    triple
      (list_size (int_bound 6) gen_op)
      (list_size (int_bound 6) gen_op)
      (list_size (int_bound 6) gen_op))

let print_scenario (base, ops_a, ops_b) =
  let ops l =
    "[" ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "]"
  in
  Printf.sprintf "base %s a %s b %s" (ops base) (ops ops_a) (ops ops_b)

let prop_wire_equivalence =
  QCheck2.Test.make ~name:"wire legs = in-process session, shipped bounded"
    ~count:500 ~print:print_scenario gen_scenario (fun (base, ops_a, ops_b) ->
      let s0 = build base in
      let a0, b0 = KV.sync s0 KV.empty in
      let a = build_on a0 ops_a and b = build_on b0 ops_b in
      let a1, b1 = KV.sync a b in
      let a2, b2, tally = wire_session a b in
      state a1 = state a2
      && state b1 = state b2
      && KV.converged a2 b2
      && tally.Ledger.shipped <= full_state_bytes a + full_state_bytes b
      && tally.Ledger.minimal <= tally.Ledger.shipped)

let prop_wire_idempotent =
  QCheck2.Test.make ~name:"second wire round is a fixpoint with 0 minimal"
    ~count:200 ~print:print_scenario gen_scenario (fun (base, ops_a, ops_b) ->
      let s0 = build base in
      let a0, b0 = KV.sync s0 KV.empty in
      let a = build_on a0 ops_a and b = build_on b0 ops_b in
      let a, b, _ = wire_session a b in
      let a', b', tally = wire_session a b in
      state a = state a' && state b = state b' && tally.Ledger.minimal = 0)

let prop_stamp_only_echoes =
  QCheck2.Test.make
    ~name:"a result is stamp-only iff it echoes the shipped candidates"
    ~count:500 ~print:print_scenario gen_scenario (fun (base, ops_a, ops_b) ->
      let s0 = build base in
      let a0, b0 = KV.sync s0 KV.empty in
      let a = build_on a0 ops_a and b = build_on b0 ops_b in
      let frontier = KV.offer a in
      let items = KV.fulfil a (KV.wants b frontier) in
      let b', results = KV.reconcile b frontier items in
      let a' = KV.apply a results in
      List.for_all
        (fun (key, _, values) ->
          let shipped =
            List.find_map
              (fun (k, _, vs) -> if k = key then Some vs else None)
              items
          in
          match (values, shipped) with
          | [], Some vs -> vs = KV.get b' key && vs = KV.get a' key
          | [], None -> false
          | _, _ -> shipped <> Some (KV.get b' key))
        results)

(* --- the merge walk against the reference reconcile --- *)

module Engine = Vstamp_sync.Engine
module Reg = Vstamp_crdt.Mv_register.Make (St)
module Smap = Map.Make (String)

(* A store shaped like [Stamped_kv]'s engine adapter: the engine sees a
   store only through [STORE], so the walk is checked on this one. *)
module Ts = struct
  type t = string Reg.t Smap.t

  type item = string Reg.t

  type meta = St.t

  let fold = Smap.fold

  let find t key = Smap.find_opt key t

  let set t key item = Smap.add key item t

  let meta_of = Reg.stamp

  let relation = St.relation

  let meta_bytes = meta_bytes

  let payload_bytes r =
    List.fold_left (fun n v -> n + String.length v) 0 (Reg.read r)

  let digest r =
    Digest.string (String.concat "\x00" (List.sort compare (Reg.read r)))

  let of_meta ~key:_ m = Reg.restore ~stamp:m []
end

(* The store's sorted keys, read through the one traversal [STORE]
   gives: what the references below take in place of the [keys] the
   store interface had before it gave the engine its entries. *)
let keys_of (type t) (module S : Engine.STORE with type t = t) store =
  List.rev (S.fold (fun key _ keys -> key :: keys) store [])

(* A frontier entry's fields: the references below read the engine's
   [(key, meta, digest)] frontier through these. *)
let f_key (k, _, _) = k

let f_meta (_, m, _) = m

let f_digest (_, _, d) = d

(* The engine's [offer] and [wants] before the ordered walks, kept as
   the reference: a key list plus one [find] per key, and one [find]
   per frontier entry. *)
module Legs_ref (S : Engine.STORE) = struct
  open Vstamp_core

  let offer store =
    List.filter_map
      (fun key ->
        Option.map
          (fun item -> (key, S.meta_of item, S.digest item))
          (S.find store key))
      (keys_of (module S) store)

  let wants store frontier =
    List.filter_map
      (fun f ->
        match S.find store (f_key f) with
        | None -> Some (f_key f)
        | Some item -> (
            match S.relation (f_meta f) (S.meta_of item) with
            | Relation.Dominates -> Some (f_key f)
            | Relation.Dominated -> None
            | Relation.Equal | Relation.Concurrent ->
                if String.equal (f_digest f) (S.digest item) then None
                else Some (f_key f)))
      frontier
end

(* The engine's [reconcile] before the merge walk, kept verbatim as the
   reference: it maps the offer, sorts the union of the offered and the
   stored keys, and looks every key up in both. *)
module Reconcile_ref (S : Engine.STORE) = struct
  open Vstamp_core
  open Engine
  open Make (S)

  let charge_for ledger tally on_report report =
    (match ledger with
    | Some c -> Ledger.account c ~shipped:report.shipped ~minimal:report.minimal
    | None -> ());
    (match tally with
    | Some t -> Ledger.add t ~shipped:report.shipped ~minimal:report.minimal
    | None -> ());
    match on_report with Some f -> f report | None -> ()

  let reconcile ?ledger ?tally ?on_report config store frontier items =
    let offered =
      List.fold_left (fun m f -> Smap.add (f_key f) f m) Smap.empty frontier
    in
    let received =
      List.fold_left (fun m e -> Smap.add e.e_key e.e_item m) Smap.empty items
    in
    let all_keys =
      List.sort_uniq String.compare
        (List.map f_key frontier @ keys_of (module S) store)
    in
    let emit report = charge_for ledger tally on_report report in
    let store, results_rev, reports_rev =
      List.fold_left
        (fun (store, results, reports) key ->
          match (Smap.find_opt key offered, S.find store key) with
          | None, None -> (store, results, reports)
          | None, Some item ->
              (* responder-only entry: replicate it for the initiator *)
              let mine, theirs = config.replicate item in
              let charge =
                {
                  meta_a = S.meta_bytes (S.meta_of item);
                  meta_b = 0;
                  payload = S.payload_bytes item;
                }
              in
              let shipped, minimal = delta Created charge in
              let report =
                {
                  key;
                  relation = None;
                  outcome = Created;
                  payload = charge.payload;
                  shipped;
                  minimal;
                }
              in
              emit report;
              ( S.set store key mine,
                { e_key = key; e_item = theirs } :: results,
                report :: reports )
          | Some f, None -> (
              match Smap.find_opt key received with
              | None ->
                  (* requested but not delivered: skip, no charge *)
                  (store, results, reports)
              | Some item ->
                  (* initiator-only entry: fork it, keep the peer branch *)
                  let mine, theirs = config.replicate item in
                  let charge =
                    {
                      meta_a = S.meta_bytes (f_meta f);
                      meta_b = 0;
                      payload = S.payload_bytes item;
                    }
                  in
                  let shipped, minimal = delta Created charge in
                  let report =
                    {
                      key;
                      relation = None;
                      outcome = Created;
                      payload = charge.payload;
                      shipped;
                      minimal;
                    }
                  in
                  emit report;
                  ( S.set store key theirs,
                    { e_key = key; e_item = mine } :: results,
                    report :: reports ))
          | Some f, Some mine_item -> (
              let reconcile_with item_a =
                let v = config.reconcile ~key item_a mine_item in
                let shipped, minimal = delta v.outcome v.charge in
                let report =
                  {
                    key;
                    relation = Some v.relation;
                    outcome = v.outcome;
                    payload = v.charge.payload;
                    shipped;
                    minimal;
                  }
                in
                emit report;
                ( S.set store key v.item_b,
                  { e_key = key; e_item = v.item_a } :: results,
                  report :: reports )
              in
              match Smap.find_opt key received with
              | Some item_a -> reconcile_with item_a
              | None -> (
                  match S.relation (f_meta f) (S.meta_of mine_item) with
                  | Relation.Dominated ->
                      (* we dominate: rebuild the initiator's side from
                         the frontier alone — propagation never reads
                         the dominated payload *)
                      reconcile_with (S.of_meta ~key (f_meta f))
                  | rel ->
                      (* observationally equal (matching digest): the
                         exchange is elided, only metadata compared *)
                      let charge =
                        {
                          meta_a = S.meta_bytes (f_meta f);
                          meta_b = S.meta_bytes (S.meta_of mine_item);
                          payload = 0;
                        }
                      in
                      let shipped, minimal = delta Unchanged charge in
                      let report =
                        {
                          key;
                          relation = Some rel;
                          outcome = Unchanged;
                          payload = 0;
                          shipped;
                          minimal;
                        }
                      in
                      emit report;
                      (store, results, report :: reports))))
        (store, [], []) all_keys
    in
    (store, List.rev results_rev, List.rev reports_rev)
end

module E = Engine.Make (Ts)
module Ref = Reconcile_ref (Ts)
module Legs = Legs_ref (Ts)

let config =
  {
    E.reconcile =
      (fun ~key:_ ra rb ->
        let relation = Reg.relation ra rb in
        let payload =
          match relation with
          | Vstamp_core.Relation.Equal -> 0
          | Dominates -> Ts.payload_bytes ra
          | Dominated -> Ts.payload_bytes rb
          | Concurrent -> Ts.payload_bytes ra + Ts.payload_bytes rb
        in
        let ra', rb' = Reg.sync ra rb in
        {
          E.item_a = ra';
          item_b = rb';
          relation;
          outcome = Engine.outcome_of_relation relation;
          charge =
            {
              Engine.meta_a = meta_bytes (Reg.stamp ra);
              meta_b = meta_bytes (Reg.stamp rb);
              payload;
            };
        });
    replicate = Reg.fork;
  }

let ts_put s (k, v) =
  Ts.set s k
    (match Ts.find s k with Some r -> Reg.write r v | None -> Reg.create v)

let ts_build s ops = List.fold_left ts_put s ops

let ts_state s =
  List.map (fun (k, r) -> (k, Reg.stamp r, Reg.read r)) (Smap.bindings s)

let entries es =
  List.map (fun e -> (e.E.e_key, Reg.stamp e.E.e_item, Reg.read e.E.e_item)) es

(* The frontier and items an initiator sends, drawn from one case: [a]'s
   offer, ascending as [offer] sends it.  With [extra], some offered
   keys are dropped from the frontier (a partial offer) but still sent
   as items, together with an item for a key nobody holds. *)
let drawn ((base, ops_a, ops_b), extra, seed) =
  let s0 = ts_build Smap.empty base in
  let a0, b0, _ = E.session config s0 Smap.empty in
  let a = ts_build a0 ops_a and b = ts_build b0 ops_b in
  let st = Random.State.make [| seed |] in
  let dropped =
    if extra then
      List.filter_map
        (fun (k, _, _) -> if Random.State.bool st then Some k else None)
        (E.offer a)
    else []
  in
  let frontier =
    List.filter (fun (k, _, _) -> not (List.mem k dropped)) (E.offer a)
  in
  let items = E.fulfil a (E.wants b frontier) in
  let items =
    if extra then
      items
      @ E.fulfil a dropped
      @ [ { E.e_key = "zeta"; e_item = Reg.create "z" } ]
    else items
  in
  (st, a0, a, b, frontier, items)

let gen_reconcile_case = QCheck2.Gen.(triple gen_scenario bool int)

let print_reconcile_case (scenario, extra, seed) =
  Printf.sprintf "%s extra %b seed %d" (print_scenario scenario) extra seed

(* The engine's reports, and a tally folded from them, against what the
   reference charged to its [~tally] and [~on_report]. *)
let prop_reconcile_matches_reference =
  QCheck2.Test.make ~name:"merge-walk reconcile = the reference" ~count:500
    ~print:print_reconcile_case gen_reconcile_case (fun case ->
      let _, _, _, b, frontier, items = drawn case in
      let store, results, reports = E.reconcile config b frontier items in
      let tally = Ledger.create () in
      List.iter
        (fun (r : Engine.report) ->
          Ledger.add tally ~shipped:r.shipped ~minimal:r.minimal)
        reports;
      let ref_tally = Ledger.create () in
      let heard = ref [] in
      let ref_store, ref_results, ref_reports =
        Ref.reconcile ~tally:ref_tally
          ~on_report:(fun r -> heard := r :: !heard)
          config b frontier items
      in
      let totals t = (t.Ledger.shipped, t.Ledger.minimal, t.Ledger.entries) in
      ts_state store = ts_state ref_store
      && entries results = entries ref_results
      && reports = ref_reports
      && reports = List.rev !heard
      && totals tally = totals ref_tally)

let prop_offer_matches_reference =
  QCheck2.Test.make ~name:"walked offer = reference" ~count:500
    ~print:print_reconcile_case gen_reconcile_case (fun case ->
      let _, a0, a, b, _, _ = drawn case in
      List.for_all
        (fun s -> E.offer s = Legs.offer s)
        [ Smap.empty; a0; a; b ])

(* Keys go missing on either side, and the frontier may be partial. *)
let prop_wants_matches_reference =
  QCheck2.Test.make ~name:"merge-walk wants = reference" ~count:500
    ~print:print_reconcile_case gen_reconcile_case (fun case ->
      let _, a0, a, b, frontier, _ = drawn case in
      List.for_all
        (fun s -> E.wants s frontier = Legs.wants s frontier)
        [ Smap.empty; a0; a; b ])

let shuffle st l =
  List.map snd
    (List.stable_sort
       (fun (x, _) (y, _) -> Int.compare x y)
       (List.map (fun x -> (Random.State.bits st, x)) l))

(* A frontier no initiator sends: the drawn one shuffled, with one entry
   repeated next to itself or next to another entry for its key (the
   responder's, or the initiator's from before its writes), or both. *)
let disordered st ~shape a0 b frontier =
  let repeat f =
    let others = if Random.State.bool st then E.offer b else E.offer a0 in
    let g =
      Option.value ~default:f
        (List.find_opt (fun g -> f_key g = f_key f) others)
    in
    if Random.State.bool st then [ f; g ] else [ g; f ]
  in
  let repeated =
    match frontier with
    | [] -> []
    | _ ->
        let i = Random.State.int st (List.length frontier) in
        List.concat
          (List.mapi (fun j f -> if i = j then repeat f else [ f ]) frontier)
  in
  match shape with
  | 0 -> shuffle st frontier
  | 1 -> repeated
  | _ -> shuffle st repeated

(* [wants] and [reconcile] take only a strictly ascending frontier, and
   raise [Invalid_argument] on any other, whatever the store. *)
let prop_disorder_raises =
  QCheck2.Test.make ~name:"a disordered frontier raises" ~count:500
    ~print:(fun (case, shape) ->
      Printf.sprintf "%s shape %d" (print_reconcile_case case) shape)
    QCheck2.Gen.(pair gen_reconcile_case (int_bound 2))
    (fun (case, shape) ->
      let st, a0, a, b, frontier, items = drawn case in
      let frontier = disordered st ~shape a0 b frontier in
      let keys = List.map f_key frontier in
      let ordered = keys = List.sort_uniq String.compare keys in
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun s ->
          raises (fun () -> E.wants s frontier) = not ordered
          && raises (fun () -> E.reconcile config s frontier items)
             = not ordered)
        [ Smap.empty; a0; a; b ])

(* [Stamped_kv]'s frontier digest is the MD5 of a register's sorted
   candidates joined by NULs, whatever their number: a lone candidate,
   hashed in place, gives the same bytes. *)
let prop_offer_digest =
  let gen_value =
    QCheck2.Gen.(
      oneof [ oneofl [ ""; "a"; "b"; "\x00"; "a\x00" ]; string_size (int_bound 6) ])
  in
  QCheck2.Test.make ~name:"offer digest = MD5 of the candidates" ~count:500
    ~print:QCheck2.Print.(list string)
    QCheck2.Gen.(
      oneof
        [
          list_size (int_range 1 3) gen_value;
          map (fun v -> [ v; v ]) gen_value;
          map2 (fun v w -> [ v; w; v ]) gen_value gen_value;
        ])
    (fun vs ->
      let stamp = Option.get (KV.stamp (KV.put KV.empty ~key:"k" "x") "k") in
      match KV.offer (KV.apply KV.empty [ ("k", stamp, vs) ]) with
      | [ ("k", _, digest) ] ->
          String.equal digest
            (Digest.string (String.concat "\x00" (List.sort compare vs)))
      | _ -> false)

let () =
  Alcotest.run "sync engine"
    [
      ( "ledger",
        [
          Alcotest.test_case "tally arithmetic" `Quick test_ledger_tally;
          Alcotest.test_case "registry counters" `Quick test_ledger_counters;
          Alcotest.test_case "growth publisher" `Quick test_ledger_publisher;
        ] );
      ( "wire legs",
        [
          Alcotest.test_case "equals in-process sync" `Quick
            test_wire_equals_inprocess;
          Alcotest.test_case "second round ships nothing" `Quick
            test_wire_second_round_ships_no_payload;
        ] );
      ( "stamp-only",
        List.map
          (fun (name, pair, expected) ->
            Alcotest.test_case name `Quick (result_case name pair expected))
          stamp_only_cases
        @ [
            Alcotest.test_case "apply to an absent key" `Quick
              test_apply_stamp_only_absent;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_wire_equivalence;
            prop_wire_idempotent;
            prop_stamp_only_echoes;
            prop_reconcile_matches_reference;
            prop_offer_matches_reference;
            prop_wants_matches_reference;
            prop_disorder_raises;
            prop_offer_digest;
          ] );
    ]
