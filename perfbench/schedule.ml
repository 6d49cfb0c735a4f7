type write = { node : int; key : int; value : string }

type op = { writes : write list; syncs : int list; visible : int list }

type spec = { name : string; nodes : int; keys : int; value_bytes : int }

(* 640 keys make a 240-op block of about 6 s, so a 50 s run holds seven
   to nine blocks.  A sweep is then 80 ops, 2 mod 3 as with
   1,024 keys, so each key meets its writers in the same rotation and
   stamps grow the same way (8.81 B mean after the third sweep, against
   8.80 B). *)
let mesh_rewrite = { name = "mesh-rewrite"; nodes = 3; keys = 640; value_bytes = 32 }

let pair_dense = { name = "pair-dense"; nodes = 2; keys = 256; value_bytes = 16 }

let pair_bulk = { name = "pair-bulk"; nodes = 2; keys = 64; value_bytes = 65536 }

let specs = [ mesh_rewrite; pair_dense; pair_bulk ]

let find name = List.find_opt (fun s -> s.name = name) specs

let key_name k = Printf.sprintf "k%04d" k

(* Values are a unique tag padded with a seeded pattern, so every write
   of a block is distinct and the inputs depend on the seed. *)
let filler ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  String.init 61 (fun _ -> Char.chr (97 + Random.State.int rng 26))

let pad spec ~seed tag =
  let filler = filler ~seed in
  let b = Buffer.create spec.value_bytes in
  Buffer.add_string b tag;
  while Buffer.length b < spec.value_bytes do
    Buffer.add_string b filler
  done;
  Buffer.sub b 0 spec.value_bytes

let preload_value spec ~seed k = pad spec ~seed (Printf.sprintf "p/k%d:" k)

let write spec ~seed ~op node key =
  { node; key; value = pad spec ~seed (Printf.sprintf "o%d/n%d/k%d:" op node key) }

let shuffle rng n =
  let a = Array.init n Fun.id in
  for j = n - 1 downto 1 do
    let r = Random.State.int rng (j + 1) in
    let t = a.(j) in
    a.(j) <- a.(r);
    a.(r) <- t
  done;
  a

let rewrite_cap = 3

let rewrites_per_key ~keys ops =
  let n = Array.make keys 0 in
  Array.iter (fun op -> List.iter (fun k -> n.(k) <- n.(k) + 1) op.visible) ops;
  n

let check_cap ~cap ~keys ops =
  let n = rewrites_per_key ~keys ops in
  match Array.find_index (fun c -> c > cap) n with
  | None -> Ok ()
  | Some k ->
      Error
        (Printf.sprintf "key %s is rewritten %d times in one cluster's life (cap %d)"
           (key_name k) n.(k) cap)

(* Writer [op mod 3] rewrites a window of 8 keys that slides by 8 per
   op; the next node rewrites 2 of them concurrently.  Each of [passes]
   sweeps rewrites every key once. *)
let mesh_ops ~passes ~seed =
  let spec = mesh_rewrite and window = 8 in
  let rng = Random.State.make [| seed; 1 |] in
  let offset = Random.State.int rng spec.keys in
  Array.init (passes * spec.keys / window) (fun op ->
      let a = op mod spec.nodes and b = (op + 1) mod spec.nodes in
      let win = List.init window (fun w -> (offset + (op * window) + w) mod spec.keys) in
      let c1 = Random.State.int rng window in
      let c2 = (c1 + 1 + Random.State.int rng (window - 1)) mod window in
      {
        writes =
          List.map (write spec ~seed ~op a) win
          @ List.map (write spec ~seed ~op b) [ List.nth win c1; List.nth win c2 ];
        syncs = [ a; b ];
        visible = win;
      })

(* Node 0 rewrites a seeded half of the keys and node 1 rewrites a
   quarter of those concurrently; one sync from node 0 settles both. *)
let dense_ops ~seed =
  let spec = pair_dense in
  let rng = Random.State.make [| seed; 2 |] in
  Array.init 250 (fun op ->
      let half = List.sort compare (Array.to_list (Array.sub (shuffle rng spec.keys) 0 (spec.keys / 2))) in
      let quarter = List.filteri (fun j _ -> j mod 4 = 0) half in
      {
        writes = List.map (write spec ~seed ~op 0) half @ List.map (write spec ~seed ~op 1) quarter;
        syncs = [ 0 ];
        visible = half;
      })

(* One fresh 64 KiB value per op on alternating nodes; every key is
   rewritten twice per cluster. *)
let bulk_ops ~seed =
  let spec = pair_bulk in
  let perm = shuffle (Random.State.make [| seed; 3 |]) spec.keys in
  Array.init (2 * spec.keys) (fun op ->
      let node = op mod 2 and key = perm.(op mod spec.keys) in
      { writes = [ write spec ~seed ~op node key ]; syncs = [ node ]; visible = [ key ] })

let block spec ~seed =
  if spec == mesh_rewrite then begin
    let ops = mesh_ops ~passes:rewrite_cap ~seed in
    (match check_cap ~cap:rewrite_cap ~keys:spec.keys ops with
    | Ok () -> ()
    | Error m -> failwith m);
    ops
  end
  else if spec == pair_dense then dense_ops ~seed
  else if spec == pair_bulk then bulk_ops ~seed
  else invalid_arg ("Schedule.block: unknown workload " ^ spec.name)
