open Vstamp_core
open Vstamp_panasync

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let rel = Alcotest.testable Relation.pp Relation.equal

(* --- File_copy --- *)

let test_create () =
  let c = File_copy.create ~path:"notes.txt" ~content:"v1" in
  check_str "path" "notes.txt" (File_copy.path c);
  check_str "content" "v1" (File_copy.content c);
  check_bool "stamp has updates" true (Stamp.has_updates (File_copy.stamp c))

let test_edit_noop () =
  let c = File_copy.create ~path:"f" ~content:"v1" in
  let c' = File_copy.edit c ~content:"v1" in
  Alcotest.check rel "no-op edit leaves equal" Relation.Equal
    (File_copy.relation c c')

let test_replicate_then_edit () =
  let c = File_copy.create ~path:"f" ~content:"v1" in
  let a, b = File_copy.replicate c in
  Alcotest.check rel "replicas equivalent" Relation.Equal (File_copy.relation a b);
  let a = File_copy.edit a ~content:"v2" in
  Alcotest.check rel "edited dominates" Relation.Dominates (File_copy.relation a b);
  Alcotest.check rel "stale dominated" Relation.Dominated (File_copy.relation b a)

let test_conflict_detection () =
  let c = File_copy.create ~path:"f" ~content:"v1" in
  let a, b = File_copy.replicate c in
  let a = File_copy.edit a ~content:"v2a" in
  let b = File_copy.edit b ~content:"v2b" in
  check_bool "concurrent edits conflict" true (File_copy.in_conflict a b);
  let a', b' = File_copy.resolve a b ~content:"merged" in
  check_str "resolved content" "merged" (File_copy.content a');
  Alcotest.check rel "resolution equivalent" Relation.Equal
    (File_copy.relation a' b');
  check_bool "no more conflict" false (File_copy.in_conflict a' b')

let test_propagate () =
  let c = File_copy.create ~path:"f" ~content:"v1" in
  let a, b = File_copy.replicate c in
  let a = File_copy.edit a ~content:"v2" in
  let a', b' = File_copy.propagate ~from:a ~into:b in
  check_str "content propagated" "v2" (File_copy.content b');
  Alcotest.check rel "now equivalent" Relation.Equal (File_copy.relation a' b')

let test_path_mismatch () =
  let a = File_copy.create ~path:"a" ~content:"x" in
  let b = File_copy.create ~path:"b" ~content:"x" in
  Alcotest.check_raises "relation"
    (Invalid_argument "File_copy.relation: different logical files") (fun () ->
      ignore (File_copy.relation a b))

let test_resolution_is_new_event () =
  (* Stamps order only coexisting copies (Section 1.2 of the paper), so
     the resolution cannot be compared with its own retired inputs;
     instead it must strictly dominate a third, still-live stale
     replica. *)
  let c = File_copy.create ~path:"f" ~content:"v1" in
  let left, b = File_copy.replicate c in
  let a, stale = File_copy.replicate left in
  let a = File_copy.edit a ~content:"v2a" in
  let b = File_copy.edit b ~content:"v2b" in
  let a', b' = File_copy.resolve a b ~content:"m" in
  Alcotest.check rel "resolution dominates a coexisting stale copy"
    Relation.Dominates
    (Stamp.relation (File_copy.stamp a') (File_copy.stamp stale));
  Alcotest.check rel "other survivor too" Relation.Dominates
    (Stamp.relation (File_copy.stamp b') (File_copy.stamp stale))

(* --- Store --- *)

let test_store_basics () =
  let s = Store.create ~name:"laptop" in
  check_int "empty" 0 (Store.file_count s);
  let s = Store.add_new s ~path:"a.txt" ~content:"A" in
  let s = Store.add_new s ~path:"b.txt" ~content:"B" in
  check_int "two files" 2 (Store.file_count s);
  Alcotest.(check (list string)) "paths sorted" [ "a.txt"; "b.txt" ] (Store.paths s);
  check_bool "mem" true (Store.mem s "a.txt");
  let s = Store.remove s ~path:"a.txt" in
  check_bool "removed" false (Store.mem s "a.txt")

let test_store_add_duplicate () =
  let s = Store.add_new (Store.create ~name:"x") ~path:"f" ~content:"1" in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Store.add_new: f already exists in x") (fun () ->
      ignore (Store.add_new s ~path:"f" ~content:"2"))

let test_store_edit_missing () =
  let s = Store.create ~name:"x" in
  Alcotest.check_raises "missing" (Invalid_argument "Store.edit: no f in x")
    (fun () -> ignore (Store.edit s ~path:"f" ~content:"2"))

let test_store_tracking_bits () =
  let s = Store.add_new (Store.create ~name:"x") ~path:"f" ~content:"1" in
  check_bool "non-negative" true (Store.total_tracking_bits s >= 0)

(* --- Sync sessions --- *)

let laptop_and_phone () =
  let laptop = Store.add_new (Store.create ~name:"laptop") ~path:"doc" ~content:"v1" in
  let laptop, phone, reports =
    Sync.session laptop (Store.create ~name:"phone")
  in
  check_int "one report" 1 (List.length reports);
  check_bool "created on phone" true (Store.mem phone "doc");
  (laptop, phone)

let test_session_replicates () =
  let laptop, phone = laptop_and_phone () in
  check_bool "converged after replication" true (Sync.converged laptop phone)

let test_session_fast_forward () =
  let laptop, phone = laptop_and_phone () in
  let laptop = Store.edit laptop ~path:"doc" ~content:"v2" in
  let laptop, phone, reports = Sync.session laptop phone in
  check_bool "no conflicts" true (Sync.conflicts reports = []);
  (match Store.find phone "doc" with
  | Some c -> check_str "fast-forwarded" "v2" (File_copy.content c)
  | None -> Alcotest.fail "file missing");
  check_bool "converged" true (Sync.converged laptop phone)

let test_session_detects_conflicts () =
  let laptop, phone = laptop_and_phone () in
  let laptop = Store.edit laptop ~path:"doc" ~content:"laptop edit" in
  let phone = Store.edit phone ~path:"doc" ~content:"phone edit" in
  let laptop', phone', reports = Sync.session laptop phone in
  check_int "one conflict" 1 (List.length (Sync.conflicts reports));
  (* manual policy: nothing changed *)
  (match Store.find laptop' "doc" with
  | Some c -> check_str "left untouched" "laptop edit" (File_copy.content c)
  | None -> Alcotest.fail "missing");
  check_bool "not converged" false (Sync.converged laptop' phone')

let test_session_policy_resolution () =
  let laptop, phone = laptop_and_phone () in
  let laptop = Store.edit laptop ~path:"doc" ~content:"laptop edit" in
  let phone = Store.edit phone ~path:"doc" ~content:"phone edit" in
  let laptop, phone, reports = Sync.session ~policy:Sync.Prefer_left laptop phone in
  check_bool "no conflicts surface" true (Sync.conflicts reports = []);
  (match Store.find phone "doc" with
  | Some c -> check_str "left preferred" "laptop edit" (File_copy.content c)
  | None -> Alcotest.fail "missing");
  check_bool "converged" true (Sync.converged laptop phone)

let test_session_merge_policy () =
  let laptop, phone = laptop_and_phone () in
  let laptop = Store.edit laptop ~path:"doc" ~content:"A" in
  let phone = Store.edit phone ~path:"doc" ~content:"B" in
  let merge ~left ~right = left ^ "+" ^ right in
  let laptop, phone, _ = Sync.session ~policy:(Sync.Merge merge) laptop phone in
  (match Store.find laptop "doc" with
  | Some c -> check_str "merged" "A+B" (File_copy.content c)
  | None -> Alcotest.fail "missing");
  check_bool "converged" true (Sync.converged laptop phone)

let test_independent_creation_conflict () =
  (* same path created independently on both sides: stamps are blind to
     it (equivalent seed lineages) but the session must flag it *)
  let a = Store.add_new (Store.create ~name:"a") ~path:"f" ~content:"mine" in
  let b = Store.add_new (Store.create ~name:"b") ~path:"f" ~content:"theirs" in
  let _, _, reports = Sync.session a b in
  check_int "conflict surfaced" 1 (List.length (Sync.conflicts reports));
  (* and a policy resolves it like any other conflict *)
  let a', b', reports = Sync.session ~policy:Sync.Prefer_right a b in
  check_bool "resolved" true (Sync.conflicts reports = []);
  (match Store.find a' "f" with
  | Some c -> check_str "right preferred" "theirs" (File_copy.content c)
  | None -> Alcotest.fail "missing");
  check_bool "converged" true (Sync.converged a' b')

let test_independent_identical_creation_ok () =
  (* independent creation with identical content is indistinguishable
     from a replicated copy and needs no conflict *)
  let a = Store.add_new (Store.create ~name:"a") ~path:"f" ~content:"same" in
  let b = Store.add_new (Store.create ~name:"b") ~path:"f" ~content:"same" in
  let _, _, reports = Sync.session a b in
  check_bool "no conflict" true (Sync.conflicts reports = [])

let test_session_disjoint_files () =
  let a = Store.add_new (Store.create ~name:"a") ~path:"x" ~content:"1" in
  let b = Store.add_new (Store.create ~name:"b") ~path:"y" ~content:"2" in
  let empty = Store.create ~name:"e" in
  check_bool "a path on one side only" false
    (Sync.converged empty a || Sync.converged a empty);
  let a, b, reports = Sync.session a b in
  check_int "two creations" 2 (List.length reports);
  check_bool "both have both" true
    (Store.mem a "y" && Store.mem b "x" && Sync.converged a b)

(* the scenario the paper motivates: three devices, offline replication
   chains, no id service anywhere *)
let test_three_device_chain () =
  let laptop = Store.add_new (Store.create ~name:"laptop") ~path:"doc" ~content:"v1" in
  let laptop, phone, _ = Sync.session laptop (Store.create ~name:"phone") in
  (* phone replicates to a tablet while offline from the laptop *)
  let phone, tablet, _ = Sync.session phone (Store.create ~name:"tablet") in
  (* tablet and laptop edit concurrently *)
  let tablet = Store.edit tablet ~path:"doc" ~content:"tablet edit" in
  let laptop = Store.edit laptop ~path:"doc" ~content:"laptop edit" in
  (* tablet syncs back with the phone: fast-forward, no conflict *)
  let tablet, phone, reports1 = Sync.session tablet phone in
  check_bool "tablet->phone clean" true (Sync.conflicts reports1 = []);
  (* phone meets the laptop: NOW the true conflict surfaces *)
  let _, _, reports2 = Sync.session phone laptop in
  check_int "exactly one true conflict" 1 (List.length (Sync.conflicts reports2));
  ignore tablet

let test_repeated_sync_stamps_stay_small () =
  let a = Store.add_new (Store.create ~name:"a") ~path:"f" ~content:"0" in
  let a, b, _ = Sync.session a (Store.create ~name:"b") in
  let rec rounds k (a, b) =
    if k = 0 then (a, b)
    else
      let a = Store.edit a ~path:"f" ~content:(string_of_int k) in
      let a, b, _ = Sync.session ~policy:Sync.Prefer_left a b in
      rounds (k - 1) (a, b)
  in
  let a, b = rounds 50 (a, b) in
  let bits c = File_copy.size_bits c in
  (match (Store.find a "f", Store.find b "f") with
  | Some ca, Some cb ->
      check_bool "stamps stay bounded over 50 sync rounds" true
        (bits ca <= 16 && bits cb <= 16)
  | _ -> Alcotest.fail "missing");
  check_bool "still converged" true (Sync.converged a b)

(* differential: sync outcomes agree with a causal-history oracle *)
let test_outcomes_match_oracle () =
  (* mirror file edits with explicit histories *)
  let c = File_copy.create ~path:"f" ~content:"v" in
  let a, b = File_copy.replicate c in
  let ha = Causal_history.of_events [ 0 ] and hb = Causal_history.of_events [ 0 ] in
  let a = File_copy.edit a ~content:"va" in
  let ha = Causal_history.add_event 1 ha in
  let b = File_copy.edit b ~content:"vb" in
  let hb = Causal_history.add_event 2 hb in
  Alcotest.check rel "stamps agree with histories"
    (Causal_history.relation ha hb)
    (File_copy.relation a b)

(* --- Obs instrumentation --- *)

let counter_value r name =
  Vstamp_obs.Metric.count (Vstamp_obs.Registry.counter r name)

let test_sync_obs_counters () =
  let module R = Vstamp_obs.Registry in
  let r = R.create () in
  check_bool "detached by default" false (Sync.Obs.attached ());
  Sync.Obs.attach ~registry:r ();
  Fun.protect ~finally:Sync.Obs.detach (fun () ->
      let outcome o = R.with_labels "sync_files_total" [ ("outcome", o) ] in
      let a = Store.create ~name:"a" and b = Store.create ~name:"b" in
      (* session 1: one-sided file replicates over — 5 content bytes *)
      let a = Store.add_new a ~path:"doc.txt" ~content:"hello" in
      let a, b, _ = Sync.session a b in
      check_int "created" 1 (counter_value r (outcome "created"));
      check_int "replicated bytes" 5 (counter_value r "sync_bytes_total");
      (* session 2: one-sided edit propagates — 11 bytes cross *)
      let a = Store.edit a ~path:"doc.txt" ~content:"hello world" in
      let a, b, _ = Sync.session a b in
      check_int "propagated" 1 (counter_value r (outcome "propagated_lr"));
      check_int "propagated bytes" 16 (counter_value r "sync_bytes_total");
      (* session 3: concurrent edits under Manual — a conflict, no bytes *)
      let a = Store.edit a ~path:"doc.txt" ~content:"L1" in
      let b = Store.edit b ~path:"doc.txt" ~content:"R1" in
      let a, b, reports = Sync.session a b in
      check_int "conflict surfaced" 1 (List.length (Sync.conflicts reports));
      check_int "conflict counted" 1 (counter_value r (outcome "conflict"));
      check_int "conflicts total" 1 (counter_value r "sync_conflicts_total");
      check_int "no bytes on standing conflict" 16
        (counter_value r "sync_bytes_total");
      (* session 4: merge policy settles it — the 4-byte merge crosses *)
      let merge = Sync.Merge (fun ~left ~right -> left ^ right) in
      let a, b, _ = Sync.session ~policy:merge a b in
      check_int "resolved" 1 (counter_value r (outcome "resolved"));
      check_int "resolved bytes" 20 (counter_value r "sync_bytes_total");
      (* session 5: nothing to do *)
      let _, _, _ = Sync.session a b in
      check_int "unchanged" 1 (counter_value r (outcome "unchanged"));
      check_int "rounds" 5 (counter_value r "sync_rounds_total"));
  check_bool "detached again" false (Sync.Obs.attached ());
  let a = Store.create ~name:"a" and b = Store.create ~name:"b" in
  let _, _, _ = Sync.session a b in
  check_int "no counting when detached" 5
    (counter_value r "sync_rounds_total")

let test_sync_obs_delta_ledger () =
  let module R = Vstamp_obs.Registry in
  let module M = Vstamp_obs.Metric in
  let r = R.create () in
  Sync.Obs.attach ~registry:r ();
  Fun.protect ~finally:Sync.Obs.detach (fun () ->
      let shipped () = counter_value r "sync_shipped_bytes_total" in
      let minimal () = counter_value r "sync_minimal_bytes_total" in
      let redundant () = counter_value r "sync_redundant_bytes_total" in
      let a = Store.create ~name:"a" and b = Store.create ~name:"b" in
      (* creation: replicating to an empty peer is already minimal *)
      let a = Store.add_new a ~path:"doc.txt" ~content:"hello" in
      let a, b, _ = Sync.session a b in
      check_bool "creation ships" true (shipped () > 0);
      check_int "creation is minimal" (shipped ()) (minimal ());
      check_int "no redundancy yet" 0 (redundant ());
      (* an unchanged round: full-state exchange is pure redundancy *)
      let before = shipped () in
      let a, b, _ = Sync.session a b in
      check_bool "unchanged round still ships state" true (shipped () > before);
      check_int "unchanged round needs nothing" (minimal () + redundant ())
        (shipped ());
      check_bool "redundancy recorded" true (redundant () > 0);
      (* one-sided edit: the minimal delta is the dominant side only *)
      let a = Store.edit a ~path:"doc.txt" ~content:"hello world" in
      let sh0 = shipped () and mi0 = minimal () in
      let _, _, _ = Sync.session a b in
      check_bool "propagation ships" true (shipped () > sh0);
      check_bool "propagation needs some bytes" true (minimal () > mi0);
      check_bool "minimal below shipped" true
        (minimal () - mi0 < shipped () - sh0);
      (* the invariant the gauge reports: minimal / shipped *)
      let eff = M.value (R.gauge r "sync_delta_efficiency") in
      check_bool "efficiency in (0, 1]" true (eff > 0. && eff <= 1.);
      check_int "ledger balances" (shipped ()) (minimal () + redundant ()))

let test_sync_emits_spans () =
  let module Tr = Vstamp_obs.Trace_ctx in
  let spans = ref [] in
  Tr.detach ();
  Tr.set_id_seed 0xabc;
  Tr.attach ~sink:(fun sp -> spans := sp :: !spans) ~node:"laptop" ();
  Fun.protect ~finally:Tr.detach (fun () ->
      let a = Store.add_new (Store.create ~name:"a") ~path:"doc" ~content:"v" in
      let _, _, _ = Sync.session a (Store.create ~name:"b") in
      let names = List.rev_map (fun sp -> sp.Tr.sp_name) !spans in
      check_bool "sync.session span" true (List.mem "sync.session" names);
      check_bool "sync.apply span" true (List.mem "sync.apply" names);
      let session =
        List.find (fun sp -> sp.Tr.sp_name = "sync.session") !spans
      in
      let apply =
        List.find (fun sp -> sp.Tr.sp_name = "sync.apply") !spans
      in
      check_str "apply continues the session trace" session.Tr.sp_trace
        apply.Tr.sp_trace;
      check_bool "apply is a child of the session span" true
        (apply.Tr.sp_parent = Some session.Tr.sp_id);
      check_bool "file count annotated" true
        (List.mem_assoc "files" session.Tr.sp_attrs));
  (* detached: sessions still work, nothing recorded *)
  let n = List.length !spans in
  let a = Store.add_new (Store.create ~name:"a") ~path:"doc" ~content:"v" in
  let _, _, _ = Sync.session a (Store.create ~name:"b") in
  check_int "no spans when detached" n (List.length !spans)

let () =
  Alcotest.run "panasync"
    [
      ( "file_copy",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "no-op edit" `Quick test_edit_noop;
          Alcotest.test_case "replicate then edit" `Quick test_replicate_then_edit;
          Alcotest.test_case "conflict detection" `Quick test_conflict_detection;
          Alcotest.test_case "propagate" `Quick test_propagate;
          Alcotest.test_case "path mismatch" `Quick test_path_mismatch;
          Alcotest.test_case "resolution is a new event" `Quick
            test_resolution_is_new_event;
        ] );
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "duplicate add" `Quick test_store_add_duplicate;
          Alcotest.test_case "edit missing" `Quick test_store_edit_missing;
          Alcotest.test_case "tracking bits" `Quick test_store_tracking_bits;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "obs counters" `Quick test_sync_obs_counters;
          Alcotest.test_case "delta ledger" `Quick test_sync_obs_delta_ledger;
          Alcotest.test_case "trace spans" `Quick test_sync_emits_spans;
        ] );
      ( "sync",
        [
          Alcotest.test_case "replicates" `Quick test_session_replicates;
          Alcotest.test_case "fast-forward" `Quick test_session_fast_forward;
          Alcotest.test_case "detects conflicts" `Quick
            test_session_detects_conflicts;
          Alcotest.test_case "policy resolution" `Quick
            test_session_policy_resolution;
          Alcotest.test_case "merge policy" `Quick test_session_merge_policy;
          Alcotest.test_case "independent creation conflicts" `Quick
            test_independent_creation_conflict;
          Alcotest.test_case "independent identical creation" `Quick
            test_independent_identical_creation_ok;
          Alcotest.test_case "disjoint files" `Quick test_session_disjoint_files;
          Alcotest.test_case "three-device chain" `Quick test_three_device_chain;
          Alcotest.test_case "stamps stay small" `Quick
            test_repeated_sync_stamps_stay_small;
          Alcotest.test_case "matches oracle" `Quick test_outcomes_match_oracle;
        ] );
    ]
