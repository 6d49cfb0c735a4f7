(** JSON Lines: the one reader of the span logs, causal traces and
    bench ledgers, and the one whole-file read behind every loader. *)

val read_file : string -> (string, string) result
(** The file's bytes, or why they could not be read: the [Sys_error]
    reason without the file name (["No such file or directory"], ["Is
    a directory"]), which the caller adds once. *)

val parse :
  (string -> ('a, string) result) -> string -> ('a list, string) result
(** [parse f text] applies [f] to each line of [text], skipping blank
    ones.  The first failure is [Error "line N: msg"], [N] counting
    from 1 over every line, blank ones included. *)

val load :
  (string -> ('a, string) result) -> string -> ('a list, string) result
(** [load f file] is {!parse} over the file's bytes, with errors
    ["FILE: msg"] when it cannot be read and ["FILE:N: msg"] for a bad
    line. *)
