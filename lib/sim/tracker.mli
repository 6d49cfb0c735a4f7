(** Uniform interface over every update-tracking mechanism.

    The simulator runs the same {!Vstamp_core.Execution.op} traces over
    each mechanism and compares sizes and answers.  [state] threads the
    mechanism's global resource: nothing for version stamps, a fresh-event
    generator for the oracle, an id allocator for vector-based baselines
    (granted here as a perfectly available central counter; its
    {e unavailability} under partition is modelled by {!Partition} and
    {!Vstamp_vv.Id_source}).

    Every stamp tracker is {!Vstamp_core.Execution.Stamp_subject} over
    one backend, and the causal-history tracker is
    {!Vstamp_core.Execution.Histories}: a tracker replays a trace with
    the same update, fork and join that {!Vstamp_core.Execution.Run}
    uses. *)

module type S = sig
  include Vstamp_core.Execution.SUBJECT

  val name : string

  val leq : t -> t -> bool
  (** The mechanism's frontier order; accuracy is judged against the
      causal-history oracle. *)

  val size_bits : t -> int
  (** Wire-size estimate of one replica's tracking data. *)

  val invariants : t list -> Vstamp_core.Invariants.violation list
  (** Structural self-check of a whole frontier — the mechanism's
      executable invariants (I1–I3 for version stamps), with positional
      witnesses.  [[]] when they hold or when the mechanism has none;
      consumed by the {!Vstamp_obs.Monitor} wiring in [System.run]. *)

  val pp : Format.formatter -> t -> unit
end

type packed = Packed : (module S with type t = 'a and type state = 'b) -> packed

val name : packed -> string

val stamps : packed
(** Tree stamps with the Section 6 join. *)

val stamps_nonreducing : packed
(** Tree stamps in the Section 4 non-reducing model. *)

val stamps_list : packed
(** Stamps over the list specification, {!Vstamp_core.Backend.Over_list},
    which has no key. *)

val stamps_packed : packed

val of_registry : unit -> packed list
(** One stamp tracker per backend in {!Vstamp_core.Backend.entries}
    order; the default backend keeps the bare name ["stamps"], the
    others are named ["stamps-<key>"]. *)

val stamp_tracker_name : string -> string
(** The tracker name for a backend key (["stamps"] /
    ["stamps-<key>"]). *)

val histories : packed

val version_vectors : packed

val dynamic_vv : packed

val plausible : int -> packed
(** Plausible clocks with the given slot count. *)

val all : packed list
(** Every tracker, for sweep experiments. *)
