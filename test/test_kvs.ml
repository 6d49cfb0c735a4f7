open Vstamp_vv
open Vstamp_kvs

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let no_ctx = Version_vector.zero

let values n k = List.sort compare (fst (Kv_node.get n k))

(* --- single node --- *)

let test_empty_get () =
  let n = Kv_node.create ~id:0 in
  Alcotest.(check (list string)) "empty" [] (fst (Kv_node.get n "k"));
  Alcotest.(check (list string)) "no keys" [] (Kv_node.keys n)

let test_put_get () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v1" in
  Alcotest.(check (list string)) "read back" [ "v1" ] (values n "k");
  Alcotest.(check (list string)) "keys" [ "k" ] (Kv_node.keys n)

let test_read_modify_write () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v1" in
  let _, ctx = Kv_node.get n "k" in
  let n = Kv_node.put n ~key:"k" ~context:ctx "v2" in
  Alcotest.(check (list string)) "overwritten" [ "v2" ] (values n "k");
  check_bool "no conflict" false (Kv_node.conflict n "k")

let test_keys_independent () =
  let n = Kv_node.create ~id:0 in
  let n = Kv_node.put n ~key:"a" ~context:no_ctx "1" in
  let n = Kv_node.put n ~key:"b" ~context:no_ctx "2" in
  let _, ctx_a = Kv_node.get n "a" in
  let n = Kv_node.put n ~key:"a" ~context:ctx_a "1b" in
  Alcotest.(check (list string)) "a overwritten" [ "1b" ] (values n "a");
  Alcotest.(check (list string)) "b untouched" [ "2" ] (values n "b")

let test_lost_update_becomes_siblings () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "base" in
  let _, ctx = Kv_node.get n "k" in
  (* two clients read the same version and write back *)
  let n = Kv_node.put n ~key:"k" ~context:ctx "from-c1" in
  let n = Kv_node.put n ~key:"k" ~context:ctx "from-c2" in
  Alcotest.(check (list string))
    "no lost update"
    [ "from-c1"; "from-c2" ]
    (values n "k");
  check_bool "conflict visible" true (Kv_node.conflict n "k")

(* --- deletes --- *)

let test_delete () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v1" in
  let _, ctx = Kv_node.get n "k" in
  let n = Kv_node.delete n ~key:"k" ~context:ctx in
  Alcotest.(check (list string)) "gone" [] (values n "k");
  Alcotest.(check (list string)) "tombstone remains" [ "k" ] (Kv_node.tombstones n)

let test_delete_keeps_concurrent () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v1" in
  let _, ctx = Kv_node.get n "k" in
  (* a concurrent write the deleting client never saw *)
  let n = Kv_node.put n ~key:"k" ~context:no_ctx "concurrent" in
  let n = Kv_node.delete n ~key:"k" ~context:ctx in
  Alcotest.(check (list string)) "survivor" [ "concurrent" ] (values n "k")

let test_no_resurrection () =
  (* the classic tombstone test: delete on one node, then anti-entropy
     with a stale peer must not bring the value back *)
  let a = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v1" in
  let b = Kv_node.create ~id:1 in
  let a, b = Kv_node.anti_entropy a b in
  Alcotest.(check (list string)) "replicated" [ "v1" ] (values b "k");
  let _, ctx = Kv_node.get a "k" in
  let a = Kv_node.delete a ~key:"k" ~context:ctx in
  (* b still holds v1; the sync must kill it, not resurrect it at a *)
  let a, b = Kv_node.anti_entropy a b in
  Alcotest.(check (list string)) "stays deleted at a" [] (values a "k");
  Alcotest.(check (list string)) "deleted at b too" [] (values b "k")

(* --- anti-entropy --- *)

let test_anti_entropy_converges () =
  let a = Kv_node.put (Kv_node.create ~id:0) ~key:"x" ~context:no_ctx "ax" in
  let b = Kv_node.put (Kv_node.create ~id:1) ~key:"y" ~context:no_ctx "by" in
  let a, b = Kv_node.anti_entropy a b in
  check_bool "converged" true (Kv_node.converged a b);
  Alcotest.(check (list string)) "a has both" [ "x"; "y" ] (Kv_node.keys a)

let test_concurrent_servers_siblings () =
  let a = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "at-a" in
  let b = Kv_node.put (Kv_node.create ~id:1) ~key:"k" ~context:no_ctx "at-b" in
  let a, _ = Kv_node.anti_entropy a b in
  Alcotest.(check (list string)) "siblings" [ "at-a"; "at-b" ] (values a "k");
  (* a client reads through a and reconciles *)
  let _, ctx = Kv_node.get a "k" in
  let a = Kv_node.put a ~key:"k" ~context:ctx "merged" in
  Alcotest.(check (list string)) "reconciled" [ "merged" ] (values a "k")

let test_three_node_ring () =
  let nodes =
    Array.init 3 (fun i -> Kv_node.put (Kv_node.create ~id:i) ~key:"k" ~context:no_ctx (Printf.sprintf "w%d" i))
  in
  (* ring gossip twice *)
  for _ = 1 to 2 do
    for i = 0 to 2 do
      let j = (i + 1) mod 3 in
      let a, b = Kv_node.anti_entropy nodes.(i) nodes.(j) in
      nodes.(i) <- a;
      nodes.(j) <- b
    done
  done;
  check_bool "all converged" true
    (Kv_node.converged nodes.(0) nodes.(1)
    && Kv_node.converged nodes.(1) nodes.(2));
  check_int "three siblings everywhere" 3 (List.length (values nodes.(0) "k"))

let test_size_bits () =
  let n = Kv_node.put (Kv_node.create ~id:0) ~key:"k" ~context:no_ctx "v" in
  check_bool "positive" true (Kv_node.size_bits n > 0);
  check_int "empty node" 0 (Kv_node.size_bits (Kv_node.create ~id:9))

(* --- property: random client/server programs never lose live writes --- *)

type cmd =
  | CPut of int * string  (* via node, key; value generated *)
  | CRmw of int * string  (* read-modify-write through a node *)
  | CDel of int * string
  | CSync of int * int

let gen_cmd n_nodes =
  let open QCheck2.Gen in
  let node = int_bound (n_nodes - 1) in
  let key = oneofl [ "a"; "b" ] in
  oneof
    [
      map2 (fun n k -> CPut (n, k)) node key;
      map2 (fun n k -> CRmw (n, k)) node key;
      map2 (fun n k -> CDel (n, k)) node key;
      map2
        (fun i j ->
          let j = if j >= i then j + 1 else j in
          CSync (i, j))
        node
        (int_bound (n_nodes - 2));
    ]

let print_cmd = function
  | CPut (n, k) -> Printf.sprintf "put(%d,%s)" n k
  | CRmw (n, k) -> Printf.sprintf "rmw(%d,%s)" n k
  | CDel (n, k) -> Printf.sprintf "del(%d,%s)" n k
  | CSync (i, j) -> Printf.sprintf "sync(%d,%d)" i j

let prop_sound =
  QCheck2.Test.make
    ~name:"random kv programs: entries stay well-formed; full gossip converges"
    ~count:300
    ~print:(fun cmds -> String.concat ";" (List.map print_cmd cmds))
    QCheck2.Gen.(list_size (int_bound 30) (gen_cmd 3))
    (fun cmds ->
      let nodes = Array.init 3 (fun i -> Kv_node.create ~id:i) in
      let counter = ref 0 in
      let value () =
        incr counter;
        Printf.sprintf "w%d" !counter
      in
      List.iter
        (fun cmd ->
          match cmd with
          | CPut (n, k) ->
              nodes.(n) <- Kv_node.put nodes.(n) ~key:k ~context:no_ctx (value ())
          | CRmw (n, k) ->
              let _, ctx = Kv_node.get nodes.(n) k in
              nodes.(n) <- Kv_node.put nodes.(n) ~key:k ~context:ctx (value ())
          | CDel (n, k) ->
              let _, ctx = Kv_node.get nodes.(n) k in
              nodes.(n) <- Kv_node.delete nodes.(n) ~key:k ~context:ctx
          | CSync (i, j) ->
              let a, b = Kv_node.anti_entropy nodes.(i) nodes.(j) in
              nodes.(i) <- a;
              nodes.(j) <- b)
        cmds;
      (* entries all well-formed *)
      let wf =
        Array.for_all
          (fun n ->
            List.for_all
              (fun k -> Dotted_vv.well_formed (Kv_node.entry n k))
              (Kv_node.keys n @ Kv_node.tombstones n))
          nodes
      in
      (* a full gossip round converges everyone *)
      for _ = 1 to 2 do
        for i = 0 to 2 do
          let j = (i + 1) mod 3 in
          let a, b = Kv_node.anti_entropy nodes.(i) nodes.(j) in
          nodes.(i) <- a;
          nodes.(j) <- b
        done
      done;
      wf
      && Kv_node.converged nodes.(0) nodes.(1)
      && Kv_node.converged nodes.(1) nodes.(2))

(* The shortest false conflict in [Stamped_kv]: a value that A has
   overwritten comes back.  A register keeps one stamp for all its
   candidates, so the merge of C's {w1, w2} with A's {w3} cannot tell
   that A's w3 superseded w2.  The causal history says A reads
   {w1, w3}; no write is lost, and w2 is the one resurrected. *)
let test_stamped_kv_false_conflict () =
  let module KV = Stamped_kv in
  let a = KV.put KV.empty ~key:"k" "w0" in
  let a, b = KV.sync a KV.empty in
  let a, c = KV.sync a KV.empty in
  let b = KV.put b ~key:"k" "w1" in
  let c = KV.put c ~key:"k" "w2" in
  let c, a = KV.sync c a in
  let c, _b = KV.sync c b in
  let a = KV.put a ~key:"k" "w3" in
  let _c, a = KV.sync c a in
  let read = List.sort compare (KV.get a "k") in
  let causal = [ "w1"; "w3" ] in
  Alcotest.(check (list string)) "A's read" [ "w1"; "w2"; "w3" ] read;
  check_bool "no write lost" true
    (List.for_all (fun w -> List.mem w read) causal);
  Alcotest.(check (list string))
    "resurrected" [ "w2" ]
    (List.filter (fun w -> not (List.mem w causal)) read)

(* --- Obs instrumentation --- *)

let counter_value r name =
  Vstamp_obs.Metric.count (Vstamp_obs.Registry.counter r name)

let test_obs_counters () =
  let module R = Vstamp_obs.Registry in
  let r = R.create () in
  check_bool "detached by default" false (Kv_node.Obs.attached ());
  Kv_node.Obs.attach ~registry:r ();
  Fun.protect ~finally:Kv_node.Obs.detach (fun () ->
      check_bool "attached" true (Kv_node.Obs.attached ());
      let a = Kv_node.create ~id:0 and b = Kv_node.create ~id:1 in
      let _, ctx = Kv_node.get a "k" in
      let a = Kv_node.put a ~key:"k" ~context:ctx "v1" in
      let _, ctx = Kv_node.get a "k" in
      let a = Kv_node.delete a ~key:"k" ~context:ctx in
      let a, _b = Kv_node.anti_entropy a b in
      ignore (Kv_node.get a "k");
      let op o = R.with_labels "kvs_ops_total" [ ("op", o) ] in
      check_int "gets" 3 (counter_value r (op "get"));
      check_int "puts" 1 (counter_value r (op "put"));
      check_int "deletes" 1 (counter_value r (op "delete"));
      check_int "anti-entropy rounds" 1 (counter_value r (op "anti_entropy"));
      check_int "sibling widths observed" 3
        (Vstamp_obs.Metric.observations (R.histogram r "kvs_get_siblings"));
      (* one anti-entropy round observes both endpoints' sizes *)
      check_int "node sizes observed" 2
        (Vstamp_obs.Metric.observations (R.histogram r "kvs_node_size_bits")));
  check_bool "detached again" false (Kv_node.Obs.attached ());
  (* instrumentation off: ops no longer count *)
  let a = Kv_node.create ~id:0 in
  ignore (Kv_node.get a "k");
  check_int "no counting when detached" 3
    (counter_value r (R.with_labels "kvs_ops_total" [ ("op", "get") ]))

let test_stamped_kv_delta_ledger () =
  let module R = Vstamp_obs.Registry in
  let module M = Vstamp_obs.Metric in
  let r = R.create () in
  check_bool "detached by default" false (Stamped_kv.Obs.attached ());
  Stamped_kv.Obs.attach ~registry:r ();
  Fun.protect ~finally:Stamped_kv.Obs.detach (fun () ->
      check_bool "attached" true (Stamped_kv.Obs.attached ());
      let shipped () = counter_value r "kvs_sync_shipped_bytes_total" in
      let minimal () = counter_value r "kvs_sync_minimal_bytes_total" in
      let redundant () = counter_value r "kvs_sync_redundant_bytes_total" in
      (* replicate one key to an empty peer: shipping it IS the delta *)
      let a = Stamped_kv.put Stamped_kv.empty ~key:"k" "hello" in
      let a, b = Stamped_kv.sync a Stamped_kv.empty in
      check_int "rounds" 1 (counter_value r "kvs_sync_rounds_total");
      check_bool "replication ships" true (shipped () > 0);
      check_int "replication is minimal" (shipped ()) (minimal ());
      (* re-sync of equal replicas: the whole exchange is redundant *)
      let before_min = minimal () in
      let a, b = Stamped_kv.sync a b in
      check_bool "equal keys ship metadata" true (shipped () > minimal ());
      check_int "equal keys need nothing" before_min (minimal ());
      check_bool "redundancy recorded" true (redundant () > 0);
      (* a one-sided edit: the dominant side plus its value is needed *)
      let a = Stamped_kv.put a ~key:"k" "hello world" in
      let sh0 = shipped () and mi0 = minimal () in
      let a, b = Stamped_kv.sync a b in
      check_bool "propagation needs bytes" true (minimal () > mi0);
      check_bool "but fewer than shipped" true
        (minimal () - mi0 < shipped () - sh0);
      (* concurrent edits: nothing can be elided, the delta is the lot *)
      let a = Stamped_kv.put a ~key:"k" "left" in
      let b = Stamped_kv.put b ~key:"k" "right" in
      let sh1 = shipped () and mi1 = minimal () in
      let _, _ = Stamped_kv.sync a b in
      check_int "concurrent keys are irreducible" (shipped () - sh1)
        (minimal () - mi1);
      let eff = M.value (R.gauge r "kvs_sync_delta_efficiency") in
      check_bool "efficiency in (0, 1]" true (eff > 0. && eff <= 1.);
      check_int "ledger balances" (shipped ()) (minimal () + redundant ()));
  check_bool "detached again" false (Stamped_kv.Obs.attached ());
  let rounds = counter_value r "kvs_sync_rounds_total" in
  let a = Stamped_kv.put Stamped_kv.empty ~key:"x" "v" in
  let _ = Stamped_kv.sync a Stamped_kv.empty in
  check_int "no counting when detached" rounds
    (counter_value r "kvs_sync_rounds_total")

let test_stamped_kv_emits_spans () =
  let module Tr = Vstamp_obs.Trace_ctx in
  let spans = ref [] in
  Tr.detach ();
  Tr.set_id_seed 0xabc;
  Tr.attach ~sink:(fun sp -> spans := sp :: !spans) ~node:"server-a" ();
  Fun.protect ~finally:Tr.detach (fun () ->
      let a = Stamped_kv.put Stamped_kv.empty ~key:"k" "v" in
      let _, _ = Stamped_kv.sync a Stamped_kv.empty in
      let names = List.rev_map (fun sp -> sp.Tr.sp_name) !spans in
      check_bool "kvs.sync span" true (List.mem "kvs.sync" names);
      check_bool "kvs.apply span" true (List.mem "kvs.apply" names);
      let walk = List.find (fun sp -> sp.Tr.sp_name = "kvs.sync") !spans in
      let apply = List.find (fun sp -> sp.Tr.sp_name = "kvs.apply") !spans in
      check_bool "apply continues the walk's trace" true
        (String.equal walk.Tr.sp_trace apply.Tr.sp_trace);
      check_bool "apply is a child of the walk" true
        (apply.Tr.sp_parent = Some walk.Tr.sp_id);
      check_bool "key count annotated" true
        (List.mem_assoc "keys" walk.Tr.sp_attrs));
  (* detached: syncs still work, nothing recorded *)
  let n = List.length !spans in
  let a = Stamped_kv.put Stamped_kv.empty ~key:"x" "v" in
  let _ = Stamped_kv.sync a Stamped_kv.empty in
  check_int "no spans when detached" n (List.length !spans)

let () =
  Alcotest.run "kvs"
    [
      ( "single node",
        [
          Alcotest.test_case "empty get" `Quick test_empty_get;
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "read-modify-write" `Quick test_read_modify_write;
          Alcotest.test_case "keys independent" `Quick test_keys_independent;
          Alcotest.test_case "no lost updates" `Quick
            test_lost_update_becomes_siblings;
        ] );
      ( "deletes",
        [
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete keeps concurrent" `Quick
            test_delete_keeps_concurrent;
          Alcotest.test_case "no resurrection" `Quick test_no_resurrection;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "converges" `Quick test_anti_entropy_converges;
          Alcotest.test_case "server siblings" `Quick
            test_concurrent_servers_siblings;
          Alcotest.test_case "three-node ring" `Quick test_three_node_ring;
          Alcotest.test_case "overwritten value comes back" `Quick
            test_stamped_kv_false_conflict;
          Alcotest.test_case "size" `Quick test_size_bits;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
          Alcotest.test_case "stamped-kv delta ledger" `Quick
            test_stamped_kv_delta_ledger;
          Alcotest.test_case "trace spans" `Quick test_stamped_kv_emits_spans;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_sound ]);
    ]
