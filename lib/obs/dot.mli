(** Graphviz DOT text: the one escape for labels that
    {!Causal_trace.to_dot} and {!Idspace.to_dot} write. *)

val escape : string -> string
(** The body of a double-quoted DOT string: ['"'] and ['\\'] get a
    backslash, a line feed becomes [\n] and a carriage return is
    dropped, so no label can end its line or its quotes early. *)
