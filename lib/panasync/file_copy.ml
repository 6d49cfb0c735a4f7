open Vstamp_core

type t = {
  path : string;
  content : string;
  stamp : Stamp.t;
  lineage : string;
      (* Digest of (path, initial content): stamps order copies within
         one creation lineage; copies of the same path created
         independently carry unrelated stamps whose comparison would be
         meaningless (and, worse, sometimes plausible).  The tag keeps
         such pairs apart: different lineages are always concurrent. *)
}

let lineage_of ~path ~content = Digest.string (path ^ "\x00" ^ content)

let create ~path ~content =
  {
    path;
    content;
    stamp = Stamp.update Stamp.seed;
    lineage = lineage_of ~path ~content;
  }

let restore ~path ~content ~stamp ~lineage =
  if not (Stamp.well_formed stamp) then
    invalid_arg "File_copy.restore: ill-formed stamp"
  else { path; content; stamp; lineage }

let path c = c.path

let content c = c.content

let stamp c = c.stamp

let lineage c = c.lineage

let same_lineage a b = String.equal a.lineage b.lineage

let edit c ~content =
  if String.equal content c.content then c
  else { c with content; stamp = Stamp.update c.stamp }

let replicate c =
  let left, right = Stamp.fork c.stamp in
  ({ c with stamp = left }, { c with stamp = right })

let check_same_file op a b =
  if not (String.equal a.path b.path) then
    invalid_arg (Printf.sprintf "File_copy.%s: different logical files" op)

let relation a b =
  check_same_file "relation" a b;
  if same_lineage a b then Stamp.relation a.stamp b.stamp
  else Relation.Concurrent

let in_conflict a b = relation a b = Relation.Concurrent

(* Merge the tracking data of two copies whose content conflict has been
   resolved to [content]; both survivors get fresh coexisting ids and an
   update records the resolution as a new event.  Resolving across
   lineages mints a brand-new lineage (a symmetric digest of both tags
   and the chosen content): the restarted stamps must never be compared
   against either old lineage, where they would look spuriously
   equivalent or stale. *)
let resolve a b ~content =
  check_same_file "resolve" a b;
  if same_lineage a b then begin
    let joined = Stamp.update (Stamp.join a.stamp b.stamp) in
    let sa, sb = Stamp.fork joined in
    ({ a with content; stamp = sa }, { b with content; stamp = sb })
  end
  else begin
    let lo = min a.lineage b.lineage and hi = max a.lineage b.lineage in
    let lineage = Digest.string (lo ^ hi ^ content) in
    let sa, sb = Stamp.fork (Stamp.update Stamp.seed) in
    ( { a with content; stamp = sa; lineage },
      { b with content; stamp = sb; lineage } )
  end

(* Propagate the dominant copy's content; both sides keep distinct ids
   but share the same causal knowledge afterwards. *)
let propagate ~from ~into =
  check_same_file "propagate" from into;
  if not (same_lineage from into) then
    invalid_arg "File_copy.propagate: unrelated lineages never dominate";
  let sa, sb = Stamp.sync from.stamp into.stamp in
  ({ from with stamp = sa }, { into with content = from.content; stamp = sb })

let size_bits c = Stamp.size_bits c.stamp

(* The frontier view of a copy: everything a peer needs to order it
   against its own copy (stamp and lineage tag) with no payload.  An
   anti-entropy offer ships one [meta] per path; a copy the receiver
   dominates is then reconstructed with [of_meta] — propagation only
   ever reads the dominant side's content, so the phantom's empty
   content is never observed. *)
type meta = { m_stamp : Stamp.t; m_lineage : string }

let meta c = { m_stamp = c.stamp; m_lineage = c.lineage }

let meta_relation a b =
  if String.equal a.m_lineage b.m_lineage then
    Stamp.relation a.m_stamp b.m_stamp
  else Relation.Concurrent

let meta_bits m = Stamp.size_bits m.m_stamp

let of_meta ~path m =
  { path; content = ""; stamp = m.m_stamp; lineage = m.m_lineage }

let pp ppf c =
  Format.fprintf ppf "%s%a %S" c.path Stamp.pp c.stamp
    (if String.length c.content > 24 then String.sub c.content 0 24 ^ "..."
     else c.content)
