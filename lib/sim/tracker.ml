open Vstamp_core
open Vstamp_vv

module type S = sig
  type t

  type state

  val name : string

  val initial : state * t

  val update : state -> t -> state * t

  val fork : state -> t -> state * (t * t)

  val join : state -> t -> t -> state * t

  val leq : t -> t -> bool

  val size_bits : t -> int

  val invariants : t list -> Invariants.violation list

  val pp : Format.formatter -> t -> unit
end

type packed = Packed : (module S with type t = 'a and type state = 'b) -> packed

let name (Packed (module T)) = T.name

(* One stamp adapter for every name backend (and both join flavours):
   the three hand-written copies this replaces differed only in the
   stamp module and the [reduce] flag. *)
module Of_stamp (B : sig
  val name : string

  val reduce : bool

  include Backend.S
end) : S with type t = B.Stamp.t and type state = unit = struct
  module I = Invariants.Make (B.Name) (B.Stamp)

  type t = B.Stamp.t

  type state = unit

  let name = B.name

  let initial = ((), B.Stamp.seed)

  let update () x = ((), B.Stamp.update x)

  let fork () x = ((), B.Stamp.fork x)

  let join () a b = ((), B.Stamp.join ~reduce:B.reduce a b)

  let leq = B.Stamp.leq

  let size_bits = B.Stamp.size_bits

  let invariants = I.check

  let pp = B.Stamp.pp
end

(* The tree backend keeps its historical bare name; others are
   suffixed with their registry key. *)
let stamp_tracker_name key =
  if String.equal key Backend.default_key then "stamps" else "stamps-" ^ key

module Stamps = Of_stamp (struct
  let name = "stamps"

  let reduce = true

  include Backend.Over_tree
end)

module Stamps_nonreducing = Of_stamp (struct
  let name = "stamps-noreduce"

  let reduce = false

  include Backend.Over_tree
end)

module Stamps_list = Of_stamp (struct
  let name = "stamps-list"

  let reduce = true

  include Backend.Over_list
end)

module Stamps_packed = Of_stamp (struct
  let name = "stamps-packed"

  let reduce = true

  include Backend.Over_packed
end)

module Histories :
  S with type t = Causal_history.t and type state = Causal_history.Gen.t =
struct
  type t = Causal_history.t

  type state = Causal_history.Gen.t

  let name = "causal-histories"

  let initial = (Causal_history.Gen.initial, Causal_history.empty)

  let update gen h =
    let e, gen = Causal_history.Gen.fresh gen in
    (gen, Causal_history.add_event e h)

  let fork gen h = (gen, (h, h))

  let join gen a b = (gen, Causal_history.union a b)

  let leq = Causal_history.subset

  (* one event identity costs the width of its number *)
  let size_bits h =
    List.fold_left
      (fun acc e -> acc + Version_vector.bits_for (e + 1))
      0
      (Causal_history.events h)

  let invariants _ = []

  let pp = Causal_history.pp
end

(* Version vectors need an id per replica; the simulator grants them a
   perfectly available central allocator — the comparison is about size
   and correctness, with the availability question treated separately by
   {!Partition}. *)
module Vv : S with type t = Version_vector.Replica.t and type state = int =
struct
  type t = Version_vector.Replica.t

  type state = int

  let name = "version-vectors"

  let initial = (1, Version_vector.Replica.create ~id:0)

  let update next r = (next, Version_vector.Replica.update r)

  let fork next r =
    let child = Version_vector.Replica.create ~id:next in
    let r', child' = Version_vector.Replica.sync r child in
    (next + 1, (r', child'))

  let join next a b = (next, fst (Version_vector.Replica.sync a b))

  let leq a b =
    Version_vector.leq
      (Version_vector.Replica.vector a)
      (Version_vector.Replica.vector b)

  let size_bits r = Version_vector.size_bits (Version_vector.Replica.vector r)

  let invariants _ = []

  let pp = Version_vector.Replica.pp
end

module Dvv : S with type t = Dynamic_vv.t and type state = int = struct
  type t = Dynamic_vv.t

  type state = int

  let name = "dynamic-vv"

  let initial = (1, Dynamic_vv.create ~id:0)

  let update next r = (next, Dynamic_vv.update r)

  let fork next r = (next + 1, Dynamic_vv.fork r ~new_id:next)

  let join next a b =
    (next + 1, Dynamic_vv.join a b ~survivor_id:next)

  let leq = Dynamic_vv.leq

  let size_bits = Dynamic_vv.size_bits

  let invariants _ = []

  let pp = Dynamic_vv.pp
end

module Plausible (R : sig
  val size : int
end) : S with type t = Plausible_clock.t * int and type state = int = struct
  type t = Plausible_clock.t * int
  (* clock plus the replica's own id, folded onto a slot at updates *)

  type state = int

  let name = Printf.sprintf "plausible-%d" R.size

  let initial = (1, (Plausible_clock.create ~size:R.size, 0))

  let update next (c, id) = (next, (Plausible_clock.increment c ~id, id))

  let fork next (c, id) = (next + 1, ((c, id), (c, next)))

  let join next (ca, ida) (cb, _) = (next, (Plausible_clock.merge ca cb, ida))

  let leq (a, _) (b, _) = Plausible_clock.leq a b

  let size_bits (c, _) = Plausible_clock.size_bits c

  let invariants _ = []

  let pp ppf (c, id) = Format.fprintf ppf "r%d%a" id Plausible_clock.pp c
end

module Plausible4 = Plausible (struct
  let size = 4
end)

module Plausible8 = Plausible (struct
  let size = 8
end)

let stamps = Packed (module Stamps)

let stamps_nonreducing = Packed (module Stamps_nonreducing)

let stamps_list = Packed (module Stamps_list)

let stamps_packed = Packed (module Stamps_packed)

(* Build a stamp tracker from any backend value, e.g. one freshly pulled
   out of the registry. *)
let of_backend ?(reduce = true) ~name b =
  let module B = (val b : Backend.S) in
  let module T = Of_stamp (struct
    let name = name

    let reduce = reduce

    include B
  end) in
  Packed (module T)

(* One stamp tracker per registered backend, in registry (key) order.
   The two in-tree backends resolve to the statically built modules
   above so their [t] types stay equal to the exposed ones. *)
let of_registry () =
  List.map
    (fun (e : Backend.entry) ->
      match e.key with
      | "tree" -> stamps
      | "packed" -> stamps_packed
      | key -> of_backend ~name:(stamp_tracker_name key) e.impl)
    (Backend.entries ())

let histories = Packed (module Histories)

let version_vectors = Packed (module Vv)

let dynamic_vv = Packed (module Dvv)

let plausible size =
  let module P = Plausible (struct
    let size = size
  end) in
  Packed (module P)

(* The sweep set: the default stamp tracker first (its historical
   position), the non-reducing variant, the list specification, then
   the remaining registry backends, then the baselines. *)
let all =
  (stamps :: stamps_nonreducing :: stamps_list
   :: List.filter (fun t -> name t <> "stamps") (of_registry ()))
  @ [ histories; version_vectors; dynamic_vv; plausible 4; plausible 8 ]
