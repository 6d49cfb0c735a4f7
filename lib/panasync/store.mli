(** One device's collection of stamped file copies.

    A store models a laptop, phone or server holding copies of replicated
    files.  Stores never talk to a central service: files appear by local
    creation ({!add_new}) or by receiving a replica during a
    {!Sync.session}.

    Its files are {!File_copy.t}s. *)

type file = File_copy.t

type t

val create : name:string -> t

val paths : t -> string list
(** Sorted logical paths present in this store. *)

val find : t -> string -> file option

val file_count : t -> int

val mem : t -> string -> bool

val add_new : t -> path:string -> content:string -> t
(** Create a brand-new logical file on this device.
    @raise Invalid_argument if the path already exists here. *)

val edit : t -> path:string -> content:string -> t
(** @raise Invalid_argument if the path is absent. *)

val remove : t -> path:string -> t

val set : t -> file -> t
(** Insert or replace the copy at its own path. *)

val fold : (file -> 'a -> 'a) -> t -> 'a -> 'a
(** In ascending path order. *)

val total_tracking_bits : t -> int
(** Total stamp overhead across the store. *)

val pp : Format.formatter -> t -> unit
