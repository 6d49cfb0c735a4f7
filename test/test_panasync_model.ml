(* Model-based testing of the file-sync layer.

   The model is a perfect-knowledge interpreter: every write carries a
   globally unique event, every copy carries its exact event history, so
   stale-vs-conflict verdicts are computed from set inclusion (the
   Section 2 oracle transplanted to files).  A random program of
   creates, edits and sync sessions runs against both the model and the
   real Store/Sync implementation; contents and conflict verdicts must
   agree at every step. *)

open Vstamp_panasync
module Iset = Set.Make (Int)
module Smap = Map.Make (String)

(* ---- the model ---- *)

type mcopy = { content : string; events : Iset.t; lineage : string }

type mstore = mcopy Smap.t

type model = { stores : mstore array; next_event : int }

let fresh m = (m.next_event, { m with next_event = m.next_event + 1 })

let m_create m ~store ~path ~content =
  let e, m = fresh m in
  let stores = Array.copy m.stores in
  stores.(store) <-
    Smap.add path
      {
        content;
        events = Iset.singleton e;
        lineage = File_copy.lineage_of ~path ~content;
      }
      stores.(store);
  { m with stores }

let m_edit m ~store ~path ~content =
  match Smap.find_opt path m.stores.(store) with
  | None -> m
  | Some c when String.equal c.content content -> m
  | Some c ->
      let e, m = fresh m in
      let stores = Array.copy m.stores in
      stores.(store) <-
        Smap.add path
          { c with content; events = Iset.add e c.events }
          stores.(store);
      { m with stores }

(* session under Prefer_left; returns the model plus per-path verdicts *)
let m_session m ~left ~right =
  let a = m.stores.(left) and b = m.stores.(right) in
  let paths =
    List.sort_uniq compare
      (List.map fst (Smap.bindings a) @ List.map fst (Smap.bindings b))
  in
  let m, a, b, verdicts =
    List.fold_left
      (fun (m, a, b, verdicts) path ->
        match (Smap.find_opt path a, Smap.find_opt path b) with
        | None, None -> (m, a, b, verdicts)
        | Some c, None ->
            (m, a, Smap.add path c b, verdicts @ [ (path, `Created) ])
        | None, Some c ->
            (m, Smap.add path c a, b, verdicts @ [ (path, `Created) ])
        | Some ca, Some cb ->
            let resolve_into m lineage =
              let e, m = fresh m in
              let c =
                {
                  content = ca.content (* Prefer_left *);
                  events = Iset.add e (Iset.union ca.events cb.events);
                  lineage;
                }
              in
              (m, Smap.add path c a, Smap.add path c b,
               verdicts @ [ (path, `Conflict_resolved) ])
            in
            if not (String.equal ca.lineage cb.lineage) then
              if String.equal ca.content cb.content then
                (m, a, b, verdicts @ [ (path, `Unchanged) ])
              else
                (* cross-lineage conflict: fresh lineage, like the impl *)
                let lo = min ca.lineage cb.lineage
                and hi = max ca.lineage cb.lineage in
                resolve_into m (Digest.string (lo ^ hi ^ ca.content))
            else if Iset.equal ca.events cb.events then
              if String.equal ca.content cb.content then
                (m, a, b, verdicts @ [ (path, `Unchanged) ])
              else resolve_into m ca.lineage
            else if Iset.subset ca.events cb.events then
              (m, Smap.add path cb a, b, verdicts @ [ (path, `Propagated) ])
            else if Iset.subset cb.events ca.events then
              (m, a, Smap.add path ca b, verdicts @ [ (path, `Propagated) ])
            else if String.equal ca.content cb.content then
              (* concurrent histories, identical contents: observationally
                 nothing to do *)
              (m, a, b, verdicts @ [ (path, `Unchanged) ])
            else resolve_into m ca.lineage)
      (m, a, b, []) paths
  in
  let stores = Array.copy m.stores in
  stores.(left) <- a;
  stores.(right) <- b;
  ({ m with stores }, verdicts)

(* ---- program generation and execution ---- *)

type cmd =
  | Create of int * string * string
  | Edit of int * string * string
  | Session of int * int

let paths_pool = [ "a"; "b"; "c" ]

let gen_cmd n_stores =
  let open QCheck2.Gen in
  let store = int_bound (n_stores - 1) in
  let path = oneofl paths_pool in
  let content = map (Printf.sprintf "v%d") (int_bound 1000) in
  oneof
    [
      map3 (fun s p c -> Create (s, p, c)) store path content;
      map3 (fun s p c -> Edit (s, p, c)) store path content;
      map2
        (fun s d ->
          let d = if d >= s then d + 1 else d in
          Session (s, d))
        store
        (int_bound (n_stores - 2));
    ]

let print_cmd = function
  | Create (s, p, c) -> Printf.sprintf "create(%d,%s,%s)" s p c
  | Edit (s, p, c) -> Printf.sprintf "edit(%d,%s,%s)" s p c
  | Session (a, b) -> Printf.sprintf "session(%d,%d)" a b

let n_stores = 3

let outcome_matches verdict (report : Sync.report) =
  match (verdict, report.Sync.outcome) with
  | `Created, Sync.Created -> true
  | `Unchanged, Sync.Unchanged -> true
  | ( `Propagated,
      (Sync.Propagated_left_to_right | Sync.Propagated_right_to_left) ) ->
      true
  | `Conflict_resolved, Sync.Resolved -> true
  | _ -> false

let run_program cmds =
  let model =
    ref { stores = Array.make n_stores Smap.empty; next_event = 0 }
  in
  let stores =
    ref
      (Array.init n_stores (fun i ->
           Store.create ~name:(Printf.sprintf "s%d" i)))
  in
  let ok = ref true in
  let fail _why = ok := false in
  List.iter
    (fun cmd ->
      if !ok then
        match cmd with
        | Create (s, p, content) ->
            if not (Store.mem !stores.(s) p) then begin
              model := m_create !model ~store:s ~path:p ~content;
              let arr = Array.copy !stores in
              arr.(s) <- Store.add_new arr.(s) ~path:p ~content;
              stores := arr
            end
        | Edit (s, p, content) ->
            if Store.mem !stores.(s) p then begin
              model := m_edit !model ~store:s ~path:p ~content;
              let arr = Array.copy !stores in
              arr.(s) <- Store.edit arr.(s) ~path:p ~content;
              stores := arr
            end
        | Session (a, b) ->
            let model', verdicts = m_session !model ~left:a ~right:b in
            model := model';
            let sa, sb, reports =
              Sync.session ~policy:Sync.Prefer_left !stores.(a) !stores.(b)
            in
            let arr = Array.copy !stores in
            arr.(a) <- sa;
            arr.(b) <- sb;
            stores := arr;
            if
              not
                (List.length verdicts = List.length reports
                && List.for_all2
                     (fun (vp, v) r ->
                       String.equal vp r.Sync.key && outcome_matches v r)
                     verdicts reports)
            then fail "verdict mismatch")
    cmds;
  (* final check: contents agree store by store, path by path *)
  if !ok then
    Array.iteri
      (fun i mstore ->
        Smap.iter
          (fun path mcopy ->
            match Store.find !stores.(i) path with
            | Some c ->
                if not (String.equal (File_copy.content c) mcopy.content) then
                  fail "content mismatch"
            | None -> fail "path missing")
          mstore)
      !model.stores;
  !ok

let prop_model_agreement =
  QCheck2.Test.make ~name:"Store/Sync agrees with the perfect-knowledge model"
    ~count:300
    ~print:(fun cmds -> String.concat ";" (List.map print_cmd cmds))
    QCheck2.Gen.(list_size (int_bound 25) (gen_cmd n_stores))
    run_program

(* a couple of directed programs that once caught real behaviour *)
let test_directed_independent_creation () =
  Alcotest.(check bool)
    "create/create/session" true
    (run_program [ Create (0, "a", "x"); Create (1, "a", "y"); Session (0, 1) ])

let test_directed_three_store_chain () =
  Alcotest.(check bool)
    "chain" true
    (run_program
       [
         Create (0, "a", "v1");
         Session (0, 1);
         Session (1, 2);
         Edit (2, "a", "v2");
         Edit (0, "a", "v3");
         Session (2, 1);
         Session (1, 0);
       ])

let test_directed_noop_session () =
  Alcotest.(check bool)
    "empty stores session" true
    (run_program [ Session (0, 1) ])

let () =
  Alcotest.run "panasync_model"
    [
      ( "directed",
        [
          Alcotest.test_case "independent creation" `Quick
            test_directed_independent_creation;
          Alcotest.test_case "three-store chain" `Quick
            test_directed_three_store_chain;
          Alcotest.test_case "no-op session" `Quick test_directed_noop_session;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_model_agreement ] );
    ]
