(** Textual serialization of execution traces.

    The format mirrors {!Vstamp_core.Execution.op_to_string}:
    semicolon-separated [update(I)], [fork(I)] and [join(I,J)] tokens,
    whitespace-tolerant.  Parsing validates the trace against the
    positional semantics (every op applicable when played from the
    initial single-element frontier), so a loaded trace is always
    runnable.  Used by the CLI to reproduce experiments from files. *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val to_string : Vstamp_core.Execution.op list -> string

val of_string : string -> (Vstamp_core.Execution.op list, error) result
(** Parse and validate.  The empty string is the empty trace. *)

val save : file:string -> Vstamp_core.Execution.op list -> unit

val load : file:string -> (Vstamp_core.Execution.op list, error) result
(** Read and parse a saved trace.
    @raise Sys_error when the file cannot be read. *)

val stats : Vstamp_core.Execution.op list -> int * int * int
(** [(updates, forks, joins)]. *)
