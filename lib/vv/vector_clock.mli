(** Vector clocks (Fidge 1989, Mattern 1989) — version vectors' twin.

    Where version vectors order {e replicas in a frontier}, vector clocks
    order {e all events} of a distributed computation ([happened_before]
    is Lamport causality).  The paper contrasts the two roles in its
    introduction; this module exists so the simulator can demonstrate the
    distinction: vector clocks can order any two recorded events, version
    stamps deliberately discard the information needed for that in
    exchange for autonomous identity management. *)

type t
(** A process with its clock. *)

val create : id:Version_vector.id -> t
(** A process with an externally allocated unique id. *)

val clock : t -> Version_vector.t
(** Current clock value — the timestamp of the latest local event. *)

val tick : t -> t
(** Local event. *)

val send : t -> t * Version_vector.t
(** Local send event; returns the timestamp to attach to the message. *)

val receive : t -> Version_vector.t -> t
(** Receive event: merge the message timestamp, then tick. *)

val happened_before : Version_vector.t -> Version_vector.t -> bool
(** Strict causal precedence of events. *)

val concurrent : Version_vector.t -> Version_vector.t -> bool

val relation : Version_vector.t -> Version_vector.t -> Vstamp_core.Relation.t
