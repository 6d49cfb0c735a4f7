open Vstamp_core

module Id = struct
  type t = Zero | One | Branch of t * t

  let norm = function
    | Branch (Zero, Zero) -> Zero
    | Branch (One, One) -> One
    | i -> i

  let rec well_formed = function
    | Zero | One -> true
    | Branch (Zero, Zero) | Branch (One, One) -> false
    | Branch (l, r) -> well_formed l && well_formed r

  let rec split = function
    | Zero -> (Zero, Zero)
    | One -> (Branch (One, Zero), Branch (Zero, One))
    | Branch (Zero, i) ->
        let l, r = split i in
        (Branch (Zero, l), Branch (Zero, r))
    | Branch (i, Zero) ->
        let l, r = split i in
        (Branch (l, Zero), Branch (r, Zero))
    | Branch (l, r) -> (Branch (l, Zero), Branch (Zero, r))

  exception Overlap

  let rec sum a b =
    match (a, b) with
    | Zero, i | i, Zero -> i
    | One, One | One, Branch _ | Branch _, One -> raise Overlap
    | Branch (l1, r1), Branch (l2, r2) -> norm (Branch (sum l1 l2, sum r1 r2))

  let rec disjoint a b =
    match (a, b) with
    | Zero, _ | _, Zero -> true
    | One, _ | _, One -> false
    | Branch (l1, r1), Branch (l2, r2) -> disjoint l1 l2 && disjoint r1 r2

  let rec pp ppf = function
    | Zero -> Format.pp_print_char ppf '0'
    | One -> Format.pp_print_char ppf '1'
    | Branch (l, r) -> Format.fprintf ppf "(%a,%a)" pp l pp r
end

module Event = struct
  type t = Leaf of int | Node of int * t * t

  let zero = Leaf 0

  let lift m = function
    | Leaf n -> Leaf (n + m)
    | Node (n, l, r) -> Node (n + m, l, r)

  let sink m = function
    | Leaf n -> Leaf (n - m)
    | Node (n, l, r) -> Node (n - m, l, r)

  let rec min_value = function
    | Leaf n -> n
    | Node (n, l, r) -> n + min (min_value l) (min_value r)

  let rec max_value = function
    | Leaf n -> n
    | Node (n, l, r) -> n + max (max_value l) (max_value r)

  let rec norm = function
    | Leaf n -> Leaf n
    | Node (n, l, r) -> (
        match (norm l, norm r) with
        | Leaf m1, Leaf m2 when m1 = m2 -> Leaf (n + m1)
        | l, r ->
            let m = min (min_value l) (min_value r) in
            Node (n + m, sink m l, sink m r))

  let rec well_formed = function
    | Leaf n -> n >= 0
    | Node (_, Leaf m1, Leaf m2) when m1 = m2 -> false
    | Node (n, l, r) ->
        n >= 0 && well_formed l && well_formed r
        && min (min_value l) (min_value r) = 0

  (* [leq] with the root offsets tracked explicitly *)
  let leq a b =
    let rec go da a db b =
      match (a, b) with
      | Leaf n1, Leaf n2 -> da + n1 <= db + n2
      (* normalized trees have a zero-minimum child, so the root value is
         the tree minimum: a uniform region fits iff it fits the root *)
      | Leaf n1, Node (n2, _, _) -> da + n1 <= db + n2
      | Node (n1, l1, r1), (Leaf _ as leaf) ->
          go (da + n1) l1 db leaf && go (da + n1) r1 db leaf
      | Node (n1, l1, r1), Node (n2, l2, r2) ->
          da + n1 <= db + n2
          && go (da + n1) l1 (db + n2) l2
          && go (da + n1) r1 (db + n2) r2
    in
    go 0 a 0 b

  let rec join a b =
    match (a, b) with
    | Leaf n1, Leaf n2 -> Leaf (max n1 n2)
    | Leaf n1, (Node _ as e) -> join (Node (n1, Leaf 0, Leaf 0)) e
    | (Node _ as e), Leaf n2 -> join e (Node (n2, Leaf 0, Leaf 0))
    | Node (n1, l1, r1), Node (n2, l2, r2) ->
        if n1 > n2 then join b a
        else
          norm
            (Node (n1, join l1 (lift (n2 - n1) l2), join r1 (lift (n2 - n1) r2)))

  let equal a b = norm a = norm b

  let rec pp ppf = function
    | Leaf n -> Format.pp_print_int ppf n
    | Node (n, l, r) -> Format.fprintf ppf "(%d,%a,%a)" n pp l pp r
end

type t = { id : Id.t; event : Event.t }

let seed = { id = Id.One; event = Event.zero }

let id t = t.id

let event_tree t = t.event

let make ~id ~event = { id; event = Event.norm event }

(* --- fill and grow: the event (update) operation --- *)

let rec fill i e =
  match (i, e) with
  | Id.Zero, e -> e
  | Id.One, e -> Event.Leaf (Event.max_value e)
  | _, Event.Leaf _ -> e
  | Id.Branch (Id.One, ir), Event.Node (n, el, er) ->
      let er' = fill ir er in
      let el' = Event.Leaf (max (Event.max_value el) (Event.min_value er')) in
      Event.norm (Event.Node (n, el', er'))
  | Id.Branch (il, Id.One), Event.Node (n, el, er) ->
      let el' = fill il el in
      let er' = Event.Leaf (max (Event.max_value er) (Event.min_value el')) in
      Event.norm (Event.Node (n, el', er'))
  | Id.Branch (il, ir), Event.Node (n, el, er) ->
      Event.norm (Event.Node (n, fill il el, fill ir er))

let rec grow i e =
  match (i, e) with
  | Id.One, Event.Leaf n -> (Event.Leaf (n + 1), 0)
  | _, Event.Leaf n ->
      let e', c = grow i (Event.Node (n, Event.Leaf 0, Event.Leaf 0)) in
      (e', c + 1000)
  | Id.Branch (Id.Zero, ir), Event.Node (n, el, er) ->
      let er', c = grow ir er in
      (Event.Node (n, el, er'), c + 1)
  | Id.Branch (il, Id.Zero), Event.Node (n, el, er) ->
      let el', c = grow il el in
      (Event.Node (n, el', er), c + 1)
  | Id.Branch (il, ir), Event.Node (n, el, er) ->
      let el', cl = grow il el in
      let er', cr = grow ir er in
      if cl < cr then (Event.Node (n, el', er), cl + 1)
      else (Event.Node (n, el, er'), cr + 1)
  | Id.Zero, _ | Id.One, Event.Node _ ->
      invalid_arg "Itc.grow: anonymous or saturated id cannot grow"

let update t =
  if t.id = Id.Zero then
    invalid_arg "Itc.update: anonymous stamp (zero id) cannot record events";
  let filled = fill t.id t.event in
  if not (Event.equal filled t.event) then { t with event = Event.norm filled }
  else
    let grown, _ = grow t.id t.event in
    { t with event = Event.norm grown }

let fork t =
  let l, r = Id.split t.id in
  ({ id = l; event = t.event }, { id = r; event = t.event })

let join a b =
  { id = Id.sum a.id b.id; event = Event.join a.event b.event }

let peek t = { id = Id.Zero; event = t.event }

let sync a b = fork (join a b)

let leq a b = Event.leq a.event b.event

let relation a b = Relation.of_leq_pair ~leq_ab:(leq a b) ~leq_ba:(leq b a)

let equal a b = a.id = b.id && Event.equal a.event b.event

(* --- wire size: prefix-free tree codes plus varint counters --- *)

let size_bits t =
  let w = Vstamp_codec.Bitio.Writer.create () in
  let rec write_id = function
    | Id.Zero ->
        Vstamp_codec.Bitio.Writer.bit w false;
        Vstamp_codec.Bitio.Writer.bit w false
    | Id.One ->
        Vstamp_codec.Bitio.Writer.bit w false;
        Vstamp_codec.Bitio.Writer.bit w true
    | Id.Branch (l, r) ->
        Vstamp_codec.Bitio.Writer.bit w true;
        write_id l;
        write_id r
  in
  let rec write_event = function
    | Event.Leaf n ->
        Vstamp_codec.Bitio.Writer.bit w false;
        Vstamp_codec.Bitio.Writer.varint w n
    | Event.Node (n, l, r) ->
        Vstamp_codec.Bitio.Writer.bit w true;
        Vstamp_codec.Bitio.Writer.varint w n;
        write_event l;
        write_event r
  in
  write_id t.id;
  write_event t.event;
  Vstamp_codec.Bitio.Writer.bit_length w

let well_formed t = Id.well_formed t.id && Event.well_formed (Event.norm t.event)

let pp ppf t = Format.fprintf ppf "(%a;%a)" Id.pp t.id Event.pp t.event

let to_string t = Format.asprintf "%a" pp t

(* --- wire codec: prefix-free tree codes, varint counters --- *)

module Wire = struct
  type error = Truncated | Malformed of string

  let pp_error ppf = function
    | Truncated -> Format.pp_print_string ppf "truncated input"
    | Malformed what -> Format.fprintf ppf "malformed input: %s" what

  let write_stamp w t =
    let module W = Vstamp_codec.Bitio.Writer in
    let rec write_id = function
      | Id.Zero ->
          W.bit w false;
          W.bit w false
      | Id.One ->
          W.bit w false;
          W.bit w true
      | Id.Branch (l, r) ->
          W.bit w true;
          write_id l;
          write_id r
    in
    let rec write_event = function
      | Event.Leaf n ->
          W.bit w false;
          W.varint w n
      | Event.Node (n, l, r) ->
          W.bit w true;
          W.varint w n;
          write_event l;
          write_event r
    in
    write_id t.id;
    write_event t.event

  let to_string t =
    let w = Vstamp_codec.Bitio.Writer.create () in
    write_stamp w t;
    Vstamp_codec.Bitio.Writer.contents w

  let read_stamp r =
    let module R = Vstamp_codec.Bitio.Reader in
    let rec read_id () =
      if R.bit r then
        let l = read_id () in
        let right = read_id () in
        match Id.norm (Id.Branch (l, right)) with
        | Id.Branch _ as b -> b
        | Id.Zero | Id.One -> failwith "unnormalized id branch"
      else if R.bit r then Id.One
      else Id.Zero
    in
    let rec read_event () =
      if R.bit r then begin
        let n = R.varint r in
        let l = read_event () in
        let right = read_event () in
        match Event.norm (Event.Node (n, l, right)) with
        | Event.Node _ as node -> node
        | Event.Leaf _ -> failwith "unnormalized event node"
      end
      else Event.Leaf (R.varint r)
    in
    let id = read_id () in
    let event = read_event () in
    { id; event }

  let of_string data =
    match
      let r = Vstamp_codec.Bitio.Reader.of_string data in
      read_stamp r
    with
    | t -> Ok t
    | exception Vstamp_codec.Bitio.Truncated -> Error Truncated
    | exception Failure m -> Error (Malformed m)

  let bits t =
    let w = Vstamp_codec.Bitio.Writer.create () in
    write_stamp w t;
    Vstamp_codec.Bitio.Writer.bit_length w
end
