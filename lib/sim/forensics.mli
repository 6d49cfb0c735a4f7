(** The [vstamp trace] toolbox: record a run as a causal event DAG,
    reconstruct and replay the run from the DAG alone, and explain the
    relation between any two recorded states.

    Recording is deterministic (node steps are logical step counters, no
    wall clocks), so recording the same trace twice — or replaying a
    recorded DAG — produces byte-identical {!Vstamp_obs.Causal_trace}
    JSONL.  That byte-identity is the replay verdict. *)

val record :
  ?check_invariants:bool ->
  ?violation_out:string ->
  Tracker.packed ->
  Vstamp_core.Execution.op list ->
  Vstamp_obs.Causal_trace.t * System.result
(** Run the trace through {!System.run} with a fresh causal-trace
    recorder attached; returns the recorded DAG alongside the run
    result.  The oracle is not run: forensics does not need accuracy
    scoring. *)

val ops_of_trace :
  Vstamp_obs.Causal_trace.t ->
  (Vstamp_core.Execution.op list, string) result
(** Reconstruct the positional op sequence that produced a recorded DAG
    by replaying its frontier head-ids: seeds form the initial frontier,
    each update/fork-pair/join node maps back to the op at the frontier
    position(s) its parents occupy.  Fails with a message on a DAG that
    no execution can have produced (orphan fork halves, parents not on
    the frontier, replica positions that disagree with the structure). *)

type replay_report = {
  ops : Vstamp_core.Execution.op list;  (** Reconstructed op sequence. *)
  replayed : Vstamp_obs.Causal_trace.t;  (** DAG recorded by the re-run. *)
  identical : bool;
      (** Whether the replayed DAG's JSONL is byte-identical to the
          original's — the replay verdict. *)
}

val replay :
  ?check_invariants:bool ->
  Tracker.packed ->
  Vstamp_obs.Causal_trace.t ->
  (replay_report, string) result
(** {!ops_of_trace}, then {!record} over the given tracker, then a
    byte-for-byte comparison of the two DAGs' JSONL. *)

(** {1 Explain} *)

val resolve : Vstamp_obs.Causal_trace.t -> string -> (int, string) result
(** Resolve a node selector: ["#7"] is node id 7; anything else selects
    the {e latest} node whose label equals the selector (stamps in paper
    notation, e.g. ["[1|01+1]"]). *)

type explanation = {
  a : Vstamp_obs.Causal_trace.node;
  b : Vstamp_obs.Causal_trace.node;
  relation : Vstamp_core.Relation.t;
      (** Causal-history relation derived purely from the DAG: which
          update events each state has absorbed.  By Proposition 5.1
          this coincides with the stamp order for coexisting replicas. *)
  meet : Vstamp_obs.Causal_trace.node option;
      (** Where the two lineages last shared state. *)
  only_a : Vstamp_obs.Causal_trace.node list;
      (** Update events in [a]'s history but not [b]'s, id order. *)
  only_b : Vstamp_obs.Causal_trace.node list;
  joins_a : Vstamp_obs.Causal_trace.node list;
      (** Join events on [a]'s side only — the synchronizations that
          folded [only_a]'s knowledge into [a], id order. *)
  joins_b : Vstamp_obs.Causal_trace.node list;
}

val explain :
  Vstamp_obs.Causal_trace.t ->
  string ->
  string ->
  (explanation, string) result
(** [explain t a b] names why the state selected by [a] relates to the
    one selected by [b] as it does: the update events one has and the
    other lacks, the fork point where their lineages diverged, and the
    join events that propagated knowledge. *)

val pp_explanation : Format.formatter -> explanation -> unit
(** Human-readable transcript, in the paper's obsolescence vocabulary. *)
