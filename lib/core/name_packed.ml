(* Names as hash-consed binary tries.

   Same shape as {!Name_tree} — [Mark] is a member, [Empty] a hole,
   [Node (l, r)] descends into [p.0] / [p.1] — but every node is interned
   in a weak table, so structural equality coincides with physical
   equality.  That buys three things the plain trie cannot offer:

   - [equal] / [is_empty] / [is_bottom] are single pointer comparisons;
   - size metrics (cardinal, total bits, depth) are cached in each node
     and read in O(1);
   - [leq] / [join] / [meet] / [reduce_stamp] memoize on the unique node
     tags, so the deep shared substructure that forking fleets produce is
     traversed once and then answered from the table.

   Tags are allocated once per distinct trie and never reused while the
   node is alive, so a memo entry can never alias two different values:
   the entry itself keeps both key nodes reachable for as long as it
   exists, and tables are cleared wholesale when they grow past a bound.

   Note on instrumentation: [reduce_stamp] calls
   [Instr.note_reduce_rewrite] only when it actually recomputes a
   collapse — a memo hit replays the cached result without re-noting the
   rewrites, so rewrite counters under this backend count distinct
   reductions, not applications. *)

type t = { tag : int; node : node; card : int; bits : int; depth : int }

and node = Empty | Mark | Node of t * t

(* --- interning --- *)

module H = struct
  type nonrec t = t

  (* Children are interned before their parent is built, so one level of
     physical comparison suffices. *)
  let equal a b =
    match (a.node, b.node) with
    | Empty, Empty | Mark, Mark -> true
    | Node (l1, r1), Node (l2, r2) -> l1 == l2 && r1 == r2
    | (Empty | Mark | Node _), _ -> false

  let hash a =
    match a.node with
    | Empty -> 0
    | Mark -> 1
    | Node (l, r) -> (((l.tag * 65599) + r.tag) * 2 + 3) land max_int
end

module W = Weak.Make (H)

let table = W.create 4096

let counter = ref 0

let hashcons node ~card ~bits ~depth =
  let tentative = { tag = !counter; node; card; bits; depth } in
  let interned = W.merge table tentative in
  if interned == tentative then incr counter;
  interned

(* [empty] and [bottom] are interned first and held forever, so the
   physical comparisons below are total. *)
let empty = hashcons Empty ~card:0 ~bits:0 ~depth:0

let bottom = hashcons Mark ~card:1 ~bits:0 ~depth:0

(* Smart constructor: maintains the no-[Node (Empty, Empty)] invariant
   and computes the cached metrics compositionally (every member of a
   child is one bit longer seen from the parent). *)
let node l r =
  if l == empty && r == empty then empty
  else
    hashcons
      (Node (l, r))
      ~card:(l.card + r.card)
      ~bits:(l.bits + l.card + r.bits + r.card)
      ~depth:(1 + max l.depth r.depth)

(* --- memo tables on node tags --- *)

(* Cleared wholesale when they outgrow the bound; entries pin their key
   nodes (and so their tags) alive, so a live entry is never stale. *)
let memo_limit = 1 lsl 16

let note tbl key v =
  if Hashtbl.length tbl >= memo_limit then Hashtbl.reset tbl;
  Hashtbl.add tbl key v;
  v

(* --- constructors --- *)

let is_empty n = n == empty

let is_bottom n = n == bottom

let rec singleton s =
  match Bits.uncons s with
  | None -> bottom
  | Some (Bits.Zero, rest) -> node (singleton rest) empty
  | Some (Bits.One, rest) -> node empty (singleton rest)

(* --- observers --- *)

let rec mem s n =
  match (n.node, Bits.uncons s) with
  | Mark, None -> true
  | Node (l, _), Some (Bits.Zero, rest) -> mem rest l
  | Node (_, r), Some (Bits.One, rest) -> mem rest r
  | (Empty | Mark | Node _), _ -> false

let cardinal n = n.card

let total_bits n = n.bits

let max_depth n = n.depth

let to_list n =
  let rec go path acc n =
    match n.node with
    | Empty -> acc
    | Mark -> Bits.of_digits (List.rev path) :: acc
    | Node (l, r) ->
        let acc = go (Bits.Zero :: path) acc l in
        go (Bits.One :: path) acc r
  in
  List.sort Bits.compare (go [] [] n)

let exists f n = List.exists f (to_list n)

let for_all f n = List.for_all f (to_list n)

let fold f n acc = List.fold_left (fun acc s -> f s acc) acc (to_list n)

(* --- order and lattice structure --- *)

let equal (n1 : t) (n2 : t) = n1 == n2

(* Tag order: an arbitrary total order compatible with [equal] (tags are
   unique per live interned node).  Not stable across runs. *)
let compare (n1 : t) (n2 : t) = Int.compare n1.tag n2.tag

let leq_tbl : (int * int, bool) Hashtbl.t = Hashtbl.create 1024

let rec leq n1 n2 =
  if n1 == n2 then true
  else
    match (n1.node, n2.node) with
    | Empty, _ -> true
    | _, Empty -> false
    | Mark, (Mark | Node _) -> true
    | Node _, Mark -> false
    | Node (l1, r1), Node (l2, r2) -> (
        let key = (n1.tag, n2.tag) in
        match Hashtbl.find_opt leq_tbl key with
        | Some v -> v
        | None -> note leq_tbl key (leq l1 l2 && leq r1 r2))

let join_tbl : (int * int, t) Hashtbl.t = Hashtbl.create 1024

let rec join n1 n2 =
  if n1 == n2 then n1
  else
    match (n1.node, n2.node) with
    | Empty, _ -> n2
    | _, Empty -> n1
    | Mark, (Mark | Node _) -> n2
    | Node _, Mark -> n1
    | Node (l1, r1), Node (l2, r2) -> (
        let key = (n1.tag, n2.tag) in
        match Hashtbl.find_opt join_tbl key with
        | Some v -> v
        | None -> note join_tbl key (node (join l1 l2) (join r1 r2)))

let meet_tbl : (int * int, t) Hashtbl.t = Hashtbl.create 1024

let rec meet n1 n2 =
  if n1 == n2 then n1
  else
    match (n1.node, n2.node) with
    | Empty, _ | _, Empty -> empty
    | Mark, (Mark | Node _) | Node _, Mark -> bottom
    | Node (l1, r1), Node (l2, r2) -> (
        let key = (n1.tag, n2.tag) in
        match Hashtbl.find_opt meet_tbl key with
        | Some v -> v
        | None ->
            let m = node (meet l1 l2) (meet r1 r2) in
            note meet_tbl key (if m == empty then bottom else m))

let rec dominates_string n r =
  match (n.node, Bits.uncons r) with
  | Empty, _ -> false
  | (Mark | Node _), None -> true
  | Mark, Some _ -> false
  | Node (l, _), Some (Bits.Zero, rest) -> dominates_string l rest
  | Node (_, r'), Some (Bits.One, rest) -> dominates_string r' rest

let incomp_tbl : (int * int, bool) Hashtbl.t = Hashtbl.create 1024

let rec incomparable_with n1 n2 =
  match (n1.node, n2.node) with
  | Empty, _ | _, Empty -> true
  | Mark, (Mark | Node _) | Node _, Mark -> false
  | Node (l1, r1), Node (l2, r2) -> (
      let key = (n1.tag, n2.tag) in
      match Hashtbl.find_opt incomp_tbl key with
      | Some v -> v
      | None ->
          note incomp_tbl key
            (incomparable_with l1 l2 && incomparable_with r1 r2))

let append0_tbl : (int, t) Hashtbl.t = Hashtbl.create 1024

let append1_tbl : (int, t) Hashtbl.t = Hashtbl.create 1024

let rec append_digit d n =
  match n.node with
  | Empty -> empty
  | Mark -> (
      match d with
      | Bits.Zero -> node bottom empty
      | Bits.One -> node empty bottom)
  | Node (l, r) -> (
      let tbl = match d with Bits.Zero -> append0_tbl | Bits.One -> append1_tbl in
      match Hashtbl.find_opt tbl n.tag with
      | Some v -> v
      | None -> note tbl n.tag (node (append_digit d l) (append_digit d r)))

(* --- stamp reduction --- *)

let reduce_tbl : (int * int, t * t) Hashtbl.t = Hashtbl.create 1024

(* Same bottom-up Section 6 pass as {!Name_tree.reduce_stamp}, memoized
   on the (u, id) tag pair.  [invalid_arg] raises before the memo write,
   so only lawful results are cached. *)
let rec reduce_stamp ~u ~id =
  match id.node with
  | Empty | Mark -> (u, id)
  | Node (il, ir) -> (
      let key = (u.tag, id.tag) in
      match Hashtbl.find_opt reduce_tbl key with
      | Some v -> v
      | None ->
          let ul, ur, u_marked =
            match u.node with
            | Empty -> (empty, empty, false)
            | Mark -> (empty, empty, true)
            | Node (ul, ur) -> (ul, ur, false)
          in
          let ul', il' = reduce_stamp ~u:ul ~id:il in
          let ur', ir' = reduce_stamp ~u:ur ~id:ir in
          let result =
            if il' == bottom && ir' == bottom then begin
              if !Instr.enabled then Instr.note_reduce_rewrite ();
              let u' =
                if u_marked then bottom
                else if ul' == empty && ur' == empty then empty
                else if
                  (ul' == empty || ul' == bottom)
                  && (ur' == empty || ur' == bottom)
                then bottom
                else
                  invalid_arg
                    "Name_packed.reduce_stamp: invariant I1 violated"
              in
              (u', bottom)
            end
            else
              let u' = if u_marked then bottom else node ul' ur' in
              (u', node il' ir')
          in
          note reduce_tbl key result)

(* --- bulk constructors, well-formedness, printing --- *)

let of_list ss = List.fold_left (fun acc s -> join acc (singleton s)) empty ss

let of_strings ss = of_list (List.map Bits.of_string ss)

(* The smart constructor makes ill-formed values unrepresentable through
   this interface; the recursive check mirrors the other backends for
   decoders that build via [of_list] anyway. *)
let rec well_formed n =
  match n.node with
  | Empty | Mark -> true
  | Node (l, r) ->
      not (l == empty && r == empty) && well_formed l && well_formed r

let pp ppf n =
  match List.sort Bits.compare_lex (to_list n) with
  | [] -> Format.pp_print_string ppf "\xc3\xb8"
  | members ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '+')
        Bits.pp ppf members

let to_string n = Format.asprintf "%a" pp n

(* --- the canonical trie --- *)

(* Both shapes are the canonical trie of the antichain, so the
   conversion is a node-for-node walk.  [node] re-interns on the way up
   and maps a [Node (Empty, Empty)] to [empty]. *)
let rec to_trie n =
  match n.node with
  | Empty -> Name_tree.Empty
  | Mark -> Name_tree.Mark
  | Node (l, r) -> Name_tree.Node (to_trie l, to_trie r)

let rec of_trie = function
  | Name_tree.Empty -> empty
  | Name_tree.Mark -> bottom
  | Name_tree.Node (l, r) -> node (of_trie l) (of_trie r)

(* --- introspection for tests and diagnostics --- *)

let tag n = n.tag

let interned_count () = W.count table
