(* Tests for the benchmark's own helpers: the tail-percentile rule, the
   mesh-rewrite rewrite cap, and the content oracle. *)

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (float 0.)) "median of 1..100" 50. (Stats.percentile ~p:0.5 (floats 100));
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.percentile ~p:0.9 (floats 100));
  Alcotest.(check (float 0.)) "p100 is the max" 7. (Stats.percentile ~p:1.0 [ 3.; 7.; 1. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_ten_beyond () =
  (match Stats.tail_percentile ~p:0.9 (floats 100) with
  | Ok v -> Alcotest.(check (float 0.)) "100 samples support p90" 90. v
  | Error m -> Alcotest.fail m);
  (match Stats.tail_percentile ~p:0.9 (floats 99) with
  | Ok _ -> Alcotest.fail "99 samples leave only 9 beyond p90"
  | Error _ -> ());
  match Stats.tail_percentile ~p:0.99 (floats 500) with
  | Ok _ -> Alcotest.fail "500 samples leave only 5 beyond p99"
  | Error _ -> ()

let test_rewrite_cap () =
  List.iter
    (fun seed ->
      let ops = Schedule.block Schedule.mesh_rewrite ~seed in
      let n = Schedule.rewrites_per_key ~keys:Schedule.mesh_rewrite.keys ops in
      Alcotest.(check int) "3 sweeps of 8-key windows" 240 (Array.length ops);
      Alcotest.(check bool) "every key rewritten exactly 3 times" true
        (Array.for_all (( = ) Schedule.rewrite_cap) n))
    [ 0; 1; 42 ];
  let over = Schedule.mesh_ops ~passes:4 ~seed:7 in
  match Schedule.check_cap ~cap:Schedule.rewrite_cap ~keys:Schedule.mesh_rewrite.keys over with
  | Ok () -> Alcotest.fail "a fourth pass must break the cap"
  | Error _ -> ()

let test_conflicts_stay_in_window () =
  Array.iter
    (fun (op : Schedule.op) ->
      List.iter
        (fun (w : Schedule.write) ->
          Alcotest.(check bool) "write inside the window" true (List.mem w.key op.visible))
        op.writes)
    (Schedule.block Schedule.mesh_rewrite ~seed:3)

let model n =
  let m = Oracle.create () in
  for k = 0 to n - 1 do
    Oracle.set m (Schedule.key_name k) [ Printf.sprintf "v%d" k ]
  done;
  m

let test_oracle_last_key () =
  let m = model 100 in
  let last = Schedule.key_name 99 in
  let get node key =
    if node = 1 && key = last then [ "stale" ] else Oracle.expected m key
  in
  let bad = Oracle.check_full m ~nodes:3 ~node_keys:(fun _ -> Oracle.keys m) ~get in
  Alcotest.(check (list (pair int string)))
    "only node 1's last key" [ (1, last) ]
    (List.map (fun (b : Oracle.mismatch) -> (b.node, b.key)) bad)

let test_oracle_missing_and_stray () =
  let m = model 10 in
  let node_keys node = if node = 0 then List.tl (Oracle.keys m) @ [ "extra" ] else Oracle.keys m in
  let get node key =
    if List.mem key (node_keys node) then if key = "extra" then [ "x" ] else Oracle.expected m key
    else []
  in
  let bad = Oracle.check_full m ~nodes:2 ~node_keys ~get in
  Alcotest.(check (list (pair int string)))
    "stray and missing key on node 0"
    [ (0, "extra"); (0, Schedule.key_name 0) ]
    (List.map (fun (b : Oracle.mismatch) -> (b.node, b.key)) bad)

let test_oracle_conflict () =
  let m = model 4 in
  Oracle.apply_writes m [ ("k0001", "b"); ("k0001", "a"); ("k0002", "c") ];
  Alcotest.(check (list string)) "concurrent writes are candidates" [ "a"; "b" ]
    (Oracle.expected m "k0001");
  Alcotest.(check (list string)) "single write dominates" [ "c" ] (Oracle.expected m "k0002");
  Alcotest.(check (list string)) "untouched" [ "v3" ] (Oracle.expected m "k0003")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "mesh-rewrite cap" `Quick test_rewrite_cap;
          Alcotest.test_case "conflicts in window" `Quick test_conflicts_stay_in_window;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "last key differs" `Quick test_oracle_last_key;
          Alcotest.test_case "missing and stray keys" `Quick test_oracle_missing_and_stray;
          Alcotest.test_case "conflict candidates" `Quick test_oracle_conflict;
        ] );
    ]
