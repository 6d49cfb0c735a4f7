open Vstamp_core

type weights = { update : int; fork : int; join : int }

let default_weights = { update = 3; fork = 2; join = 2 }

(* --- random uniform workload --- *)

let uniform ?(seed = 1) ?(weights = default_weights) ?(max_frontier = 16)
    ~n_ops () =
  let rec build rng size k acc =
    if k = 0 then List.rev acc
    else
      let candidates =
        List.concat
          [
            [ (weights.update, `Update) ];
            (if size < max_frontier then [ (weights.fork, `Fork) ] else []);
            (if size >= 2 then [ (weights.join, `Join) ] else []);
          ]
      in
      let kind, rng = Rng.pick_weighted rng candidates in
      match kind with
      | `Update ->
          let i, rng = Rng.int rng size in
          build rng size (k - 1) (Execution.Update i :: acc)
      | `Fork ->
          let i, rng = Rng.int rng size in
          build rng (size + 1) (k - 1) (Execution.Fork i :: acc)
      | `Join ->
          let i, rng = Rng.int rng size in
          let j0, rng = Rng.int rng (size - 1) in
          let j = if j0 >= i then j0 + 1 else j0 in
          build rng (size - 1) (k - 1) (Execution.Join (i, j) :: acc)
  in
  build (Rng.make seed) 1 n_ops []

(* --- deep forking: join-free growth, the stamp worst case --- *)

let deep_fork ?(update_between = true) ~depth () =
  List.concat_map
    (fun i ->
      (* always fork the newest replica, optionally updating it first *)
      if update_between then [ Execution.Update i; Execution.Fork i ]
      else [ Execution.Fork i ])
    (List.init depth (fun i -> i))

(* --- label tracking: follow logical replicas through positions --- *)

module Labels = struct
  (* a value of this module is an [int list]: the logical replica label
     at each frontier position *)

  let apply ~fresh labels op =
    match op with
    | Execution.Update _ -> (labels, fresh)
    | Execution.Fork i ->
        ( Execution.fork_positions labels i ~left:(List.nth labels i)
            ~right:fresh,
          fresh + 1 )
    | Execution.Join (i, j) ->
        (Execution.join_positions labels i j ~merged:(List.nth labels i), fresh)

  let position labels l =
    let rec go k = function
      | [] -> raise Not_found
      | x :: _ when x = l -> k
      | _ :: rest -> go (k + 1) rest
    in
    go 0 labels
end

(* A sync keeps both replicas alive: join then fork at the landing spot.
   The left fork result keeps label [a], the right keeps label [b]. *)
let sync_ops labels fresh a b =
  let i = Labels.position labels a and j = Labels.position labels b in
  let join = Execution.Join (i, j) in
  let labels, fresh = Labels.apply ~fresh labels join in
  let lo = Labels.position labels a in
  let fork = Execution.Fork lo in
  (* relabel: left keeps a, right becomes b again *)
  let labels, _ = Labels.apply ~fresh:b labels fork in
  (labels, fresh, [ join; fork ])

(* --- star synchronization: the classic fixed-replica-set setting --- *)

let sync_star ?(updates_per_round = 1) ~peers ~rounds () =
  if peers < 1 then invalid_arg "Workload.sync_star: peers must be >= 1";
  (* grow: hub is label 0; fork out peer labels 1..peers *)
  let labels = ref [ 0 ] and fresh = ref 1 and ops = ref [] in
  for _ = 1 to peers do
    let hub = Labels.position !labels 0 in
    let op = Execution.Fork hub in
    let labels', fresh' = Labels.apply ~fresh:!fresh !labels op in
    labels := labels';
    fresh := fresh';
    ops := op :: !ops
  done;
  for _ = 1 to rounds do
    for p = 1 to peers do
      (* the peer updates, then syncs with the hub *)
      for _ = 1 to updates_per_round do
        ops := Execution.Update (Labels.position !labels p) :: !ops
      done;
      let labels', fresh', sync = sync_ops !labels !fresh 0 p in
      labels := labels';
      fresh := fresh';
      ops := List.rev_append sync !ops
    done
  done;
  List.rev !ops

(* --- steady-state gossip: fixed frontier, random pairwise syncs --- *)

let gossip ?(seed = 1) ~replicas ~rounds () =
  if replicas < 2 then invalid_arg "Workload.gossip: need at least 2 replicas";
  let labels = ref [ 0 ] and fresh = ref 1 and ops = ref [] in
  for _ = 2 to replicas do
    (* fork from the last-born replica to spread id depth *)
    let donor = Labels.position !labels (!fresh - 1) in
    let op = Execution.Fork donor in
    let labels', fresh' = Labels.apply ~fresh:!fresh !labels op in
    labels := labels';
    fresh := fresh';
    ops := op :: !ops
  done;
  let rng = ref (Rng.make seed) in
  for _ = 1 to rounds do
    let size = List.length !labels in
    List.iteri
      (fun pos _ ->
        let doit, rng' = Rng.below !rng 0.5 in
        rng := rng';
        if doit then ops := Execution.Update pos :: !ops)
      !labels;
    let i, rng' = Rng.int !rng size in
    let j0, rng'' = Rng.int rng' (size - 1) in
    rng := rng'';
    let j = if j0 >= i then j0 + 1 else j0 in
    let a = List.nth !labels i and b = List.nth !labels j in
    let labels', fresh', sync = sync_ops !labels !fresh a b in
    labels := labels';
    fresh := fresh';
    ops := List.rev_append sync !ops
  done;
  List.rev !ops

(* --- churn: random births and deaths around a target frontier size --- *)

let churn ?(seed = 1) ~target ~n_ops () =
  if target < 2 then invalid_arg "Workload.churn: target must be >= 2";
  let rec build rng size k acc =
    if k = 0 then List.rev acc
    else
      let upd, rng = Rng.below rng 0.4 in
      if upd then
        let i, rng = Rng.int rng size in
        build rng size (k - 1) (Execution.Update i :: acc)
      else
        let grow, rng = Rng.below rng (if size <= target then 0.7 else 0.3) in
        if grow || size < 2 then
          let i, rng = Rng.int rng size in
          build rng (size + 1) (k - 1) (Execution.Fork i :: acc)
        else
          let i, rng = Rng.int rng size in
          let j0, rng = Rng.int rng (size - 1) in
          let j = if j0 >= i then j0 + 1 else j0 in
          build rng (size - 1) (k - 1) (Execution.Join (i, j) :: acc)
  in
  build (Rng.make seed) 1 n_ops []

(* --- partitioned operation with periodic heals --- *)

let partitioned ?(seed = 1) ~replicas ~groups ~phases ~syncs_per_phase () =
  if groups < 1 then invalid_arg "Workload.partitioned: groups must be >= 1";
  if replicas < 2 * groups then
    invalid_arg "Workload.partitioned: need at least 2 replicas per group";
  let ops = ref [] and labels = ref [ 0 ] and fresh = ref 1 in
  let emit op =
    let labels', fresh' = Labels.apply ~fresh:!fresh !labels op in
    labels := labels';
    fresh := fresh';
    ops := op :: !ops
  in
  for _ = 2 to replicas do
    emit (Execution.Fork (List.length !labels - 1))
  done;
  let rng = ref (Rng.make seed) in
  let group_of_label l = l mod groups in
  for phase = 1 to phases do
    (* during odd phases operate partitioned; even phases are heals where
       any pair may sync *)
    let healed = phase mod 2 = 0 in
    for _ = 1 to syncs_per_phase do
      (* random updates *)
      List.iteri
        (fun pos _ ->
          let doit, rng' = Rng.below !rng 0.5 in
          rng := rng';
          if doit then ops := Execution.Update pos :: !ops)
        !labels;
      (* pick a pair allowed by the current phase *)
      let pairs =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if a < b && (healed || group_of_label a = group_of_label b)
                then Some (a, b)
                else None)
              !labels)
          !labels
      in
      match pairs with
      | [] -> ()
      | _ ->
          let (a, b), rng' = Rng.pick !rng pairs in
          rng := rng';
          let labels', fresh', sync = sync_ops !labels !fresh a b in
          labels := labels';
          fresh := fresh';
          ops := List.rev_append sync !ops
    done
  done;
  List.rev !ops

let all_named ~n_ops =
  [
    ("uniform", uniform ~seed:7 ~n_ops ());
    ("deep-fork", deep_fork ~depth:(max 1 (n_ops / 2)) ());
    ("sync-star", sync_star ~peers:8 ~rounds:(max 1 (n_ops / 32)) ());
    ("gossip", gossip ~seed:7 ~replicas:8 ~rounds:(max 1 (n_ops / 10)) ());
    ("churn", churn ~seed:7 ~target:8 ~n_ops ());
    ( "partitioned",
      partitioned ~seed:7 ~replicas:8 ~groups:2 ~phases:4
        ~syncs_per_phase:(max 1 (n_ops / 40)) () );
  ]
