(** A peer-to-peer key-value replica tracked by version stamps.

    The stamp-based counterpart of {!Kv_node}: where [Kv_node] models
    the data-center architecture (fixed server ids, dotted version
    vectors, tombstoned deletes), this store models the {e ad-hoc} side
    of the identity question — any replica can be copied anywhere, with
    no id service, because every key is a stamped multi-value register
    ({!Vstamp_crdt.Mv_register}) whose identity forks locally.

    Caveats that follow from the model: keys created independently on
    two replicas share no causal context, so their first sync reports a
    conflict even for equal values; and a value one replica has
    overwritten can come back as a false conflict.  A register keeps
    one stamp for all its candidates, and a merge of concurrent
    registers takes the union of their candidates, so it cannot tell
    that one side had already overwritten a candidate the other still
    holds.  No write is lost,
    but a read can hold a superseded value: after B writes [w1] and C
    writes [w2], C syncs to A and then with B, and A overwrites [w2]
    with [w3], a C↔A sync leaves A reading [[w1; w2; w3]] where the
    causal history says [[w1; w3]].

    Generic in the stamp backend via {!Make}; the top level is the
    default (tree) instantiation. *)

module Make (S : Vstamp_core.Stamp.S) : sig
  type t
  (** One replica of the store.  Immutable. *)

  val empty : t

  val keys : t -> string list
  (** Sorted. *)

  val cardinal : t -> int
  (** The number of keys, in O(1): kept by every mutation. *)

  val digest : t -> int
  (** The content digest, in O(1): the sum modulo 2{^53} of one
      fingerprint per key, each covering the key and every byte of its
      sorted candidates, never its stamp.  Stores with the same keys
      and candidate sets have equal digests whatever their histories;
      any other pair collides only by accident of the hash.  Every
      mutation adjusts it by the one key it touches, and a mutation
      that leaves a key's candidates as they were keeps its
      fingerprint.  Below 2{^53}, so a float gauge holds it exactly. *)

  val get : t -> string -> string list
  (** Current candidate values: [[]] for unknown keys, a singleton when
      there is no unresolved conflict. *)

  val stamp : t -> string -> S.t option
  (** The version stamp tracking one key, if present. *)

  val put : t -> key:string -> string -> t
  (** Local write; first write of a key seeds a fresh register. *)

  val sync : t -> t -> t * t
  (** Pairwise anti-entropy over the union of the two replicas' keys;
    keys held by one side only are replicated to the other (both
    continuing the same forked lineage).  Runs on the shared
    {!Vstamp_sync.Engine} session (frontier offer → delta request →
    reconcile), composed in-process. *)

  (** {2 Wire-level session legs}

      The same session split for a transport: each leg exchanges plain
      serializable data, so a framed protocol ({!Vstamp_net}) can ship
      the legs between processes and still produce stores
      byte-identical to an in-process {!sync}.  The legs do {e not}
      charge the attached [kvs_sync_*] ledger — a networked round
      accounts to the [tally] it passes to {!reconcile}. *)

  type frontier = (string * S.t * string) list
  (** One entry per key, in strictly ascending key order: its stamp and
      a digest fingerprinting the candidate value set (an MD5 computed
      by {!offer}, not the store's {!digest}).  The engine's own
      frontier ({!Vstamp_sync.Engine.Make.frontier}), shipped as is. *)

  type delta = (string * S.t * string list) list
  (** Entries on the move: key, stamp, candidate values.  {!fulfil}
      always ships the candidates.  In {!reconcile}'s results an empty
      list means "stamp only": the candidates are exactly the ones the
      initiator shipped, so they do not cross the wire again.  A stored
      register always holds at least one candidate, so an empty list is
      never a real candidate set. *)

  val offer : t -> frontier
  (** Leg 1 (initiator): the replica's full frontier, sorted by key. *)

  val wants : t -> frontier -> string list
  (** Leg 2 (responder): the keys whose full entries are needed — ones
      this replica lacks, is dominated on, or holds concurrent/equal
      with a different candidate set.

      @raise Invalid_argument if the frontier's keys are not strictly
      ascending. *)

  val fulfil : t -> string list -> delta
  (** Leg 3 (initiator): the requested entries. *)

  val reconcile :
    ?tally:Vstamp_sync.Ledger.t -> t -> frontier -> delta -> t * delta
  (** Leg 4 (responder): reconcile the received entries against the
      offered frontier; returns the updated replica and the
      initiator's halves to ship back.  A half whose candidates are
      exactly the ones the initiator shipped for that key (it
      dominated, or held the key alone) is stamp-only: its candidate
      list is empty.  Every other half carries its candidates.  The
      [tally] is charged as for an in-process {!sync}.

      @raise Invalid_argument if the frontier's keys are not strictly
      ascending. *)

  val apply : t -> delta -> t
  (** Final leg (initiator): adopt the responder's results.  A
      stamp-only entry keeps the candidates this replica holds and
      adopts the stamp; for a key it does not hold, it is dropped.
      Applied to the replica that ran {!offer} and {!fulfil}, the
      result is the store an in-process {!sync} leaves. *)

  val converged : t -> t -> bool
  (** Same keys, same candidate value sets. *)
end

(** {1 Live instrumentation}

    Off by default.  When attached, every {!Make.sync} bumps
    [kvs_sync_rounds_total] and charges the anti-entropy walk to the
    delta ledger: [kvs_sync_shipped_bytes_total] (both replicas' stamp
    metadata per shared key plus the candidate values that change
    hands), [kvs_sync_minimal_bytes_total] (the frontier-exchange
    minimum: nothing for equivalent keys, the dominant side only for
    ordered ones), [kvs_sync_redundant_bytes_total] (their difference)
    and the [kvs_sync_delta_efficiency] gauge (running
    [minimal / shipped]).  Counters are shared by every instantiation
    of {!Make}. *)
module Obs : sig
  val attach : ?registry:Vstamp_obs.Registry.t -> unit -> unit
  (** Start counting into [registry] (default
      {!Vstamp_obs.Registry.default}).  Re-attaching rebinds to the
      registry given last. *)

  val detach : unit -> unit

  val attached : unit -> bool
end

module Over_tree : module type of Make (Vstamp_core.Stamp.Over_tree)

include module type of Over_tree
(** The default (tree-backed) instantiation. *)
