(** ASCII diagrams of executions, in the spirit of the paper's Figure 2.

    One row per replica lineage, one four-character column per operation:
    [--*-] marks an update (the paper's dotted arrow), [--+<]/[  `-] a
    fork opening a child lineage, [--+-]/[--'.] a join retiring the
    higher lineage into the lower.  Optionally labels each surviving
    lineage with its final stamp.  Used by [vstamp draw] and handy when
    staring at a counterexample trace from the property tests. *)

val to_string : Vstamp_core.Execution.op list -> string
(** Render a valid trace. *)

val draw : ?with_stamps:bool -> Vstamp_core.Execution.op list -> string
(** {!to_string}; with [with_stamps = true], also runs the trace over
    default stamps and labels each row with its final stamp. *)

val header : Vstamp_core.Execution.op list -> string
(** The operation names, one per column, for captioning. *)

val to_dot : Vstamp_core.Execution.op list -> string
(** Graphviz digraph of the trace's causal event DAG, one node per
    replica state labelled with its stamp in paper notation.  Labels are
    escaped — quotes, backslashes and newlines in label text cannot
    break the DOT syntax (stamp notation's [+] and [|] need no escaping
    inside DOT quoted strings, but the escaper must not mangle them
    either). *)
