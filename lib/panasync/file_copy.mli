(** A single copy of a replicated file, stamped for dependency tracking.

    This is the PANASYNC usage of version stamps (the authors' own
    application, SIGOPS EW 2000): each physical copy of a logical file
    carries a version stamp; copying a file is a fork (fully offline — no
    registry of copies exists anywhere), editing is an update, and
    reconciliation uses the stamp relation to distinguish stale copies
    from genuine conflicts.

    Stamps only order copies descending from {e one} creation of the
    file.  Copies of the same path created independently carry unrelated
    stamps whose raw comparison is meaningless — and occasionally
    plausible-looking, which would silently lose data.  Every copy
    therefore also carries a {e lineage tag} (a digest of path and
    initial content, computable offline): {!relation} answers
    [Concurrent] across lineages unconditionally, and {!resolve} unifies
    the lineages of a settled conflict.

    Stamps are the default (tree) backend's. *)

type t

val create : path:string -> content:string -> t
(** A brand-new logical file: seed stamp, already marked updated (its
    creation is an event), lineage derived from path and content. *)

val restore :
  path:string ->
  content:string ->
  stamp:Vstamp_core.Stamp.t ->
  lineage:string ->
  t
(** Rebuild a copy from persisted parts (see {!Fs_store}).
    @raise Invalid_argument if the stamp is ill-formed. *)

val lineage_of : path:string -> content:string -> string
(** The tag {!create} derives. *)

val path : t -> string

val content : t -> string

val stamp : t -> Vstamp_core.Stamp.t

val lineage : t -> string

val edit : t -> content:string -> t
(** Replace content, recording an update.  Editing to identical content
    is a no-op. *)

val replicate : t -> t * t
(** Fork: the copy and its new replica, distinguishable forever after —
    created without any coordination. *)

val relation : t -> t -> Vstamp_core.Relation.t
(** How two copies of the same logical file relate; [Concurrent] across
    lineages.  @raise Invalid_argument if the paths differ. *)

val in_conflict : t -> t -> bool
(** Both copies carry updates the other has not seen (or they belong to
    unrelated lineages). *)

val resolve : t -> t -> content:string -> t * t
(** Settle a conflict on [content]: stamps join, the resolution is
    recorded as a fresh update and both survivors re-fork.  Across
    lineages the stamps restart from a fresh seed under a brand-new
    lineage tag (a symmetric digest of both old tags and the content),
    so the survivors are never mis-compared against either old lineage.
    The input copies are retired by this operation: stamps order only
    {e coexisting} copies, so
    comparing a survivor against a retired input is meaningless
    (survivors do correctly dominate every still-live stale copy of the
    same lineage).
    @raise Invalid_argument if the paths differ. *)

val propagate : from:t -> into:t -> t * t
(** Bring a stale copy up to date with the dominant one; afterwards the
    copies are equivalent but keep distinct identities.
    @raise Invalid_argument if the paths differ or the lineages are
    unrelated. *)

val size_bits : t -> int
(** Tracking overhead of this copy. *)

type meta
(** The frontier view of a copy: its stamp and lineage tag, no
    payload — what one anti-entropy offer entry carries per path. *)

val meta : t -> meta

val meta_relation : meta -> meta -> Vstamp_core.Relation.t
(** {!relation} on frontier views ([Concurrent] across lineages);
    no path check — the caller pairs metas of one logical file. *)

val meta_bits : meta -> int

val of_meta : path:string -> meta -> t
(** A phantom copy: the frontier metadata with empty content.  Only
    meaningful as the {e dominated} side of {!propagate}, which never
    reads it. *)

val pp : Format.formatter -> t -> unit
