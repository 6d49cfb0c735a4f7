open Vstamp_core
open Vstamp_vv

module type S = sig
  include Execution.SUBJECT

  val name : string

  val leq : t -> t -> bool

  val size_bits : t -> int

  val invariants : t list -> Invariants.violation list

  val pp : Format.formatter -> t -> unit
end

type packed = Packed : (module S with type t = 'a and type state = 'b) -> packed

let name (Packed (module T)) = T.name

(* Every stamp tracker: [Execution]'s subject over one backend's stamps
   ([reduce] selects the Section 6 join), checked by its invariants. *)
let of_stamp ~name ~reduce b =
  let module B = (val b : Backend.S) in
  let module Subjects = Execution.Stamp_subject (B.Stamp) in
  let module I = Invariants.Make (B.Name) (B.Stamp) in
  let module T = struct
    include (val Subjects.make ~reduce)

    let name = name

    let leq = B.Stamp.leq

    let size_bits = B.Stamp.size_bits

    let invariants = I.check

    let pp = B.Stamp.pp
  end in
  Packed (module T)

(* The tree backend keeps its historical bare name; others are
   suffixed with their key. *)
let stamp_tracker_name key =
  if String.equal key Backend.default_key then "stamps" else "stamps-" ^ key

module Histories = struct
  include Execution.Histories

  let name = "causal-histories"

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
module Vv = struct
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

module Dvv = struct
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

let plausible size =
  let module P = struct
    type t = Plausible_clock.t * int
    (* clock plus the replica's own id, folded onto a slot at updates *)

    type state = int

    let name = Printf.sprintf "plausible-%d" size

    let initial = (1, (Plausible_clock.create ~size, 0))

    let update next (c, id) = (next, (Plausible_clock.increment c ~id, id))

    let fork next (c, id) = (next + 1, ((c, id), (c, next)))

    let join next (ca, ida) (cb, _) = (next, (Plausible_clock.merge ca cb, ida))

    let leq (a, _) (b, _) = Plausible_clock.leq a b

    let size_bits (c, _) = Plausible_clock.size_bits c

    let invariants _ = []

    let pp ppf (c, id) = Format.fprintf ppf "r%d%a" id Plausible_clock.pp c
  end in
  Packed (module P)

let stamps = of_stamp ~name:"stamps" ~reduce:true (module Backend.Over_tree)

let stamps_nonreducing =
  of_stamp ~name:"stamps-noreduce" ~reduce:false (module Backend.Over_tree)

let stamps_list =
  of_stamp ~name:"stamps-list" ~reduce:true (module Backend.Over_list)

let stamps_packed =
  of_stamp ~name:"stamps-packed" ~reduce:true (module Backend.Over_packed)

(* One stamp tracker per keyed backend, in key order. *)
let of_registry () =
  List.map
    (fun (e : Backend.entry) ->
      of_stamp ~name:(stamp_tracker_name e.key) ~reduce:true e.impl)
    (Backend.entries ())

let histories = Packed (module Histories)

let version_vectors = Packed (module Vv)

let dynamic_vv = Packed (module Dvv)

(* The sweep set: the default stamp tracker first (its historical
   position), the non-reducing variant, the list specification, then
   the other keyed backends, then the baselines. *)
let all =
  (stamps :: stamps_nonreducing :: stamps_list
   :: List.filter (fun t -> name t <> "stamps") (of_registry ()))
  @ [ histories; version_vectors; dynamic_vv; plausible 4; plausible 8 ]
