(** Clocks and process/host counters. *)

val now : unit -> float
(** Wall clock, seconds. *)

val cpu_s : unit -> float
(** Process CPU time (user + system, all threads), seconds. *)

val steal_s : unit -> float option
(** Host-wide steal time since boot from [/proc/stat], seconds, when
    the kernel exposes it. *)

val cpus : unit -> int
(** Processors the host lists in [/proc/stat]; 1 when unreadable. *)

val heap_mb : unit -> float
(** Current major heap, MB. *)

val top_heap_mb : unit -> float
(** Largest major heap so far, MB. *)
