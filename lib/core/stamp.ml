module type S = sig
  type name

  type t

  val seed : t

  val make : update:name -> id:name -> t

  val make_unchecked : update:name -> id:name -> t

  val update_name : t -> name

  val id : t -> name

  val update : t -> t

  val fork : t -> t * t

  val join : ?reduce:bool -> t -> t -> t

  val sync : t -> t -> t * t

  val fork_many : t -> int -> t list

  val reduce : t -> t

  val is_reduced : t -> bool

  val leq : t -> t -> bool

  val relation : t -> t -> Relation.t

  val equivalent : t -> t -> bool

  val obsolete : t -> t -> bool

  val inconsistent : t -> t -> bool

  val dominates_all : t -> t list -> bool

  val dominated_by_join : t -> t list -> bool

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val size_bits : t -> int

  val id_width : t -> int

  val max_depth : t -> int

  val well_formed : t -> bool

  val has_updates : t -> bool

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string
end

module Make (N : Name_intf.S) = struct
  type name = N.t

  type t = { u : N.t; i : N.t }
  (* Invariant I1: [N.leq u i].  Maintained by every operation below;
     [make] checks it, [make_unchecked] is for decoders that re-validate. *)

  let seed = { u = N.bottom; i = N.bottom }

  let make ~update ~id =
    if not (N.leq update id) then
      invalid_arg "Stamp.make: update component not dominated by id (I1)";
    { u = update; i = id }

  let make_unchecked ~update ~id = { u = update; i = id }

  let update_name t = t.u

  let id t = t.i

  let size_bits t = N.total_bits t.u + N.total_bits t.i

  let id_width t = N.cardinal t.i

  let max_depth t = max (N.max_depth t.u) (N.max_depth t.i)

  let pp ppf t = Format.fprintf ppf "[%a|%a]" N.pp t.u N.pp t.i

  let to_string t = Format.asprintf "%a" pp t

  (* Instrumentation: one load-and-branch on [Instr.enabled] per
     operation when telemetry is off; measurements (including rendering
     the causal parents) happen only when it is on. *)
  let observe op ~parents ~bits_before t =
    Instr.note_op
      {
        Instr.op;
        bits_before;
        bits_after = size_bits t;
        depth = max_depth t;
        width = id_width t;
        parents = List.map to_string parents;
      }

  let update t =
    let t' = { u = t.i; i = t.i } in
    if !Instr.enabled then
      observe Instr.Update ~parents:[ t ] ~bits_before:(size_bits t) t';
    t'

  let fork t =
    let l = { t with i = N.append_digit Bits.Zero t.i }
    and r = { t with i = N.append_digit Bits.One t.i } in
    if !Instr.enabled then begin
      (* the fork's whole footprint: both resulting stamps *)
      Instr.note_op
        {
          Instr.op = Instr.Fork;
          bits_before = size_bits t;
          bits_after = size_bits l + size_bits r;
          depth = max (max_depth l) (max_depth r);
          width = id_width l + id_width r;
          parents = [ to_string t ];
        }
    end;
    (l, r)

  let reduce t =
    let u, i = N.reduce_stamp ~u:t.u ~id:t.i in
    let t' = { u; i } in
    if !Instr.enabled then begin
      let before = size_bits t in
      Instr.note_bits_saved (before - size_bits t');
      observe Instr.Reduce ~parents:[ t ] ~bits_before:before t'
    end;
    t'

  let join ?(reduce = true) a b =
    let joined = { u = N.join a.u b.u; i = N.join a.i b.i } in
    let result =
      if reduce then
        let u, i = N.reduce_stamp ~u:joined.u ~id:joined.i in
        { u; i }
      else joined
    in
    if !Instr.enabled then begin
      if reduce then Instr.note_bits_saved (size_bits joined - size_bits result);
      observe Instr.Join ~parents:[ a; b ]
        ~bits_before:(size_bits a + size_bits b)
        result
    end;
    result

  let sync a b = fork (join a b)

  let fork_many t n =
    if n < 1 then invalid_arg "Stamp.fork_many: need at least one replica";
    (* the head of the result continues the leftmost lineage *)
    let rec go k t acc =
      if k = 1 then t :: acc
      else
        let l, r = fork t in
        go (k - 1) l (r :: acc)
    in
    go n t []

  let is_reduced t =
    let u, i = N.reduce_stamp ~u:t.u ~id:t.i in
    N.equal u t.u && N.equal i t.i

  let leq a b = N.leq a.u b.u

  let relation a b = Relation.of_leq_pair ~leq_ab:(leq a b) ~leq_ba:(leq b a)

  let equivalent a b = relation a b = Relation.Equal

  let obsolete a b = relation a b = Relation.Dominated

  let inconsistent a b = relation a b = Relation.Concurrent

  let joined_updates others =
    List.fold_left (fun acc o -> N.join acc o.u) N.empty others

  let dominates_all t others = N.leq (joined_updates others) t.u

  let dominated_by_join t others = N.leq t.u (joined_updates others)

  let equal a b = N.equal a.u b.u && N.equal a.i b.i

  let compare a b =
    let c = N.compare a.u b.u in
    if c <> 0 then c else N.compare a.i b.i

  let well_formed t = N.well_formed t.u && N.well_formed t.i && N.leq t.u t.i

  let has_updates t = not (N.is_empty t.u)
end

module Over_list = Make (Name)
(** Stamps over the sorted-list name representation (the specification). *)

module Over_tree = Make (Name_tree)
(** Stamps over the trie name representation (the fast path). *)

module Over_packed = Make (Name_packed)
(** Stamps over the hash-consed trie representation (the memoized fast
    path; see {!Name_packed}). *)

include Over_tree
(** The default stamp implementation is the trie-backed one. *)
