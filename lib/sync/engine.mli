(** The transport-agnostic anti-entropy engine.

    Every pairwise sync in the tree is the same session, whatever the
    store: compare the two sides' stamp frontiers, request the entries
    one side is missing or dominated on, reconcile them under the
    store's own rules, and return the initiator its halves.  {!Make}
    factors that walk — together with its per-key {!report}s and the
    trace spans — out of panasync's file sessions, the stamped KV store
    and the network layer, which differ only in their item type and
    reconciliation closures.

    The session is pure and phrased as four legs so a transport can
    interleave them with frames (the [vstamp-sync/2] protocol in
    [Vstamp_net]), while {!Make.session} composes them in-process:

    {v
      initiator A                          responder B
      ----------------                     ----------------
      offer a            -- frontier -->   wants b frontier
      fulfil a wanted    <-- request --
                         --  items   -->   reconcile b frontier items
      apply a results    <-- results --
    v}

    All reconciliation happens at the responder, in sorted key order,
    with the same closures an in-process session uses — so a networked
    session and a local one produce byte-identical stores.  Entries the
    responder dominates are reconstructed from the offered frontier
    metadata alone (a phantom item with an empty payload: propagation
    only ever reads the dominant side's payload), so the dominated
    side's payload never crosses the wire. *)

open Vstamp_core

(** What reconciling one entry did.  The initiator is the left side
    and the responder the right: [Propagated_left_to_right]
    fast-forwarded the responder from the initiator's copy,
    [Propagated_right_to_left] the reverse; [Resolved] settled surfaced
    concurrency, [Conflict] left it standing. *)
type outcome =
  | Created
  | Unchanged
  | Propagated_left_to_right
  | Propagated_right_to_left
  | Resolved
  | Conflict

val outcome_of_relation : Relation.t -> outcome
(** The outcome a plain fast-forwarding sync yields per relation:
    [Equal → Unchanged], [Dominates → Propagated_left_to_right],
    [Dominated → Propagated_right_to_left], [Concurrent → Conflict]. *)

type charge = { meta_a : int; meta_b : int; payload : int }
(** One entry's byte accounting inputs: each side's causality-metadata
    size and the payload bytes that changed hands. *)

val delta : outcome -> charge -> int * int
(** [(shipped, minimal)]: a full exchange ships both metadatas plus the
    payload; the frontier-exchange minimum is nothing for [Unchanged],
    the dominant side's metadata plus payload for propagation,
    everything when concurrency is surfaced, and the whole entry for
    [Created] (creations carry no redundancy). *)

type report = {
  key : string;
  relation : Relation.t option;  (** [None] for one-sided entries. *)
  outcome : outcome;
  payload : int;  (** Payload bytes that crossed. *)
  shipped : int;
  minimal : int;
}
(** What reconciling one key did, and its {!delta}: the engine's one
    accounting output.  {!Make.reconcile} and {!Make.session} return
    one per key, and each caller folds them into its own counters. *)

val ascending : (string * 'meta * string) list -> bool
(** Whether a frontier's keys are strictly ascending: the order
    {!Make.offer} sends, and the only one {!Make.wants} and
    {!Make.reconcile} accept.  A transport checks a peer's frontier
    with it before the engine sees it. *)

(** What {!Make} needs from a store: a sorted key space of items, each
    carrying comparable causality metadata ([meta]) and a payload
    fingerprint ([digest]), plus the phantom constructor ([of_meta])
    that rebuilds a payload-less item from offered frontier metadata.

    The store is persistent: [set] returns a new store and leaves the
    one it was given as it was, so {!Make.reconcile} can walk the
    store's entries with [fold] while it builds the updated one. *)
module type STORE = sig
  type t

  type item

  type meta

  val fold : (string -> item -> 'a -> 'a) -> t -> 'a -> 'a
  (** [fold f t init] visits every entry once, in strictly ascending
      key order: the one traversal {!Make.offer}, {!Make.wants} and
      {!Make.reconcile} make of the store, in place of a key list and
      one [find] per key. *)

  val find : t -> string -> item option
  (** One entry: used for the keys a peer names ({!Make.fulfil}). *)

  val set : t -> string -> item -> t

  val meta_of : item -> meta

  val relation : meta -> meta -> Relation.t

  val meta_bytes : meta -> int

  val payload_bytes : item -> int

  val digest : item -> string
  (** Payload fingerprint: equal digests mean observationally equal
      payloads (used to elide equal-but-renamed exchanges). *)

  val of_meta : key:string -> meta -> item
  (** A phantom item: the frontier metadata with an empty payload.
      Only ever passed as the {e dominated} side of [reconcile]. *)
end

module Make (S : STORE) : sig
  type verdict = {
    item_a : S.item;
    item_b : S.item;
    relation : Relation.t;
    outcome : outcome;
    charge : charge;
  }
  (** A reconciliation closure's result: both updated items, the
      relation it observed, what it did, and the byte charge (the
      caller decides whether metadata is measured before or after the
      reconciliation — the stores disagree and both are defensible). *)

  type config = {
    reconcile : key:string -> S.item -> S.item -> verdict;
        (** Reconcile two copies of one entry (initiator's first). *)
    replicate : S.item -> S.item * S.item;
        (** Fork an entry for a peer that lacks it; the owner keeps the
            first branch, the peer receives the second. *)
  }

  (** {1 The four legs} *)

  type frontier = (string * S.meta * string) list
  (** One entry per key: the key, its metadata and its payload
      {!STORE.digest}, in strictly ascending key order. *)

  type entry = { e_key : string; e_item : S.item }

  val offer : S.t -> frontier
  (** Leg 1 (initiator): the full frontier, sorted by key — one
      {!STORE.fold} over the store. *)

  val wants : S.t -> frontier -> string list
  (** Leg 2 (responder): the keys whose full items the responder needs
      — ones it lacks, is dominated on, or holds concurrent/equal with
      a different payload — in frontier order.  Entries the responder
      dominates, and observationally equal ones, are deliberately not
      requested.

      The frontier is merged with one {!STORE.fold}, so the leg visits
      each key once whatever the frontier's length: the responder's
      {!reconcile} walks the whole store anyway.

      @raise Invalid_argument if the frontier's keys are not strictly
      ascending (see {!ascending}). *)

  val fulfil : S.t -> string list -> entry list
  (** Leg 3 (initiator): the requested items, in request order. *)

  val reconcile :
    config -> S.t -> frontier -> entry list -> S.t * entry list * report list
  (** Leg 4 (responder): walk the sorted union of the offered frontier
      and the local keys, reconciling received items, reconstructing
      phantom dominated entries, replicating one-sided ones, and
      skipping observationally equal ones.  Returns the updated store,
      the initiator's halves (leg 5's payload), and one report per key
      in sorted order: the round's accounting.

      The walk is one merge of the frontier with one {!STORE.fold}, so
      each key of the union is visited once and no key is looked up.
      Items for keys the frontier does not offer are ignored.

      @raise Invalid_argument if the frontier's keys are not strictly
      ascending (see {!ascending}). *)

  val apply : S.t -> entry list -> S.t
  (** Final leg (initiator): adopt the responder's results. *)

  (** {1 In-process composition} *)

  type spans = {
    span_session : string;  (** e.g. ["sync.session"]. *)
    span_apply : string;  (** e.g. ["sync.apply"]. *)
    unit_key : string;  (** The count attribute: ["files"], ["keys"]. *)
  }

  val session : ?spans:spans -> config -> S.t -> S.t -> S.t * S.t * report list
  (** One whole anti-entropy session between two local stores: the four
      legs composed back to back, returning both stores and
      {!reconcile}'s reports.  When [spans] is given and tracing is
      attached, it wraps the walk in a session span whose context rides
      to a child apply span, the same shape a networked session
      stretches over a socket. *)
end
