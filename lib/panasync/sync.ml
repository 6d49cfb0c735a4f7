open Vstamp_core
module Engine = Vstamp_sync.Engine
module Ledger = Vstamp_sync.Ledger

(* Optional live instrumentation, off by default (mirrors
   Kv_node.Obs): when attached, every session, reconciled file and
   propagated byte counts into a registry for the embedded telemetry
   server to expose.  The delta ledger (shipped /
   minimal / redundant / efficiency) is the shared {!Vstamp_sync.Ledger}
   family under the [sync_] prefix. *)
module Obs = struct
  module R = Vstamp_obs.Registry
  module M = Vstamp_obs.Metric

  type counters = {
    ledger : Ledger.counters;
        (* sync_rounds_total, sync_{shipped,minimal,redundant}_bytes_total,
           sync_delta_efficiency *)
    bytes : M.counter;  (* sync_bytes_total: content bytes moved *)
    conflicts : M.counter;
    files : string -> M.counter;  (* sync_files_total{outcome=...} *)
  }

  let state : counters option ref = ref None

  let attach ?(registry = R.default) () =
    let outcome_tbl = Hashtbl.create 8 in
    let files outcome =
      match Hashtbl.find_opt outcome_tbl outcome with
      | Some c -> c
      | None ->
          let c =
            R.counter registry
              (R.with_labels "sync_files_total" [ ("outcome", outcome) ])
          in
          Hashtbl.add outcome_tbl outcome c;
          c
    in
    state :=
      Some
        {
          ledger = Ledger.counters ~registry ~prefix:"sync_" ();
          bytes = R.counter registry "sync_bytes_total";
          conflicts = R.counter registry "sync_conflicts_total";
          files;
        }

  let detach () = state := None

  let attached () = Option.is_some !state

  let[@inline] on f = match !state with Some c -> f c | None -> ()
end

type policy =
  | Manual
  | Prefer_left
  | Prefer_right
  | Merge of (left:string -> right:string -> string)

(* The session walks left-as-initiator, right-as-responder, so the
   engine's outcomes read left to right. *)
type outcome = Engine.outcome =
  | Created  (* the file existed on only one side: a replica was made *)
  | Unchanged  (* equivalent copies *)
  | Propagated_left_to_right
  | Propagated_right_to_left
  | Resolved  (* conflict settled by the policy *)
  | Conflict  (* Manual policy: both sides left untouched *)

type report = Engine.report = {
  key : string;  (* the file's path *)
  relation : Relation.t option;
  outcome : outcome;
  payload : int;
  shipped : int;
  minimal : int;
}

let outcome_to_string = function
  | Created -> "created"
  | Unchanged -> "unchanged"
  | Propagated_left_to_right -> "propagated ->"
  | Propagated_right_to_left -> "propagated <-"
  | Resolved -> "resolved"
  | Conflict -> "CONFLICT"

let pp_report ppf r =
  Format.fprintf ppf "%-20s %-12s %s" r.key
    (match r.relation with None -> "-" | Some rel -> Relation.to_string rel)
    (outcome_to_string r.outcome)

let outcome_slug = function
  | Created -> "created"
  | Unchanged -> "unchanged"
  | Propagated_left_to_right -> "propagated_lr"
  | Propagated_right_to_left -> "propagated_rl"
  | Resolved -> "resolved"
  | Conflict -> "conflict"

let conflicts reports = List.filter (fun r -> r.outcome = Conflict) reports

(* Content bytes a reconciliation moved between the devices: the
   propagated or resolved payload; nothing for equivalent copies or a
   conflict left standing. *)
let moved_bytes outcome l r =
  match outcome with
  | Propagated_left_to_right -> String.length (File_copy.content l)
  | Propagated_right_to_left -> String.length (File_copy.content r)
  | Resolved -> String.length (File_copy.content l)
  | Created | Unchanged | Conflict -> 0

let meta_bytes c = (File_copy.size_bits c + 7) / 8

(* Wire accounting for one reconciled pair, charged on the
   post-reconciliation copies (what actually crossed, with the stamps
   the session left behind).  The split is the engine's unified
   formula: shipped = both metadatas + moved payload; minimal = what a
   frontier-exchange protocol needs. *)
let charge_of outcome l r =
  {
    Engine.meta_a = meta_bytes l;
    meta_b = meta_bytes r;
    payload = moved_bytes outcome l r;
  }

(* The engine store adapter: a panasync store keyed by path, with the
   copies' frontier view (stamp + lineage, no payload) as metadata and
   an MD5 content digest standing in for the old direct content
   comparison of observationally-equal copies. *)
module ES = struct
  type t = Store.t

  type item = File_copy.t

  type meta = File_copy.meta

  let fold f store init =
    Store.fold (fun c acc -> f (File_copy.path c) c acc) store init

  let find = Store.find

  let set store _key item = Store.set store item

  let meta_of = File_copy.meta

  let relation = File_copy.meta_relation

  let meta_bytes m = (File_copy.meta_bits m + 7) / 8

  let payload_bytes item = String.length (File_copy.content item)

  let digest item = Digest.string (File_copy.content item)

  let of_meta ~key m = File_copy.of_meta ~path:key m
end

module E = Engine.Make (ES)

(* The per-path reconciliation the engine drives: [left] is the
   initiator's copy (a payload-less phantom when this side dominates
   it — propagation never reads the dominated content), [right] this
   side's. *)
let sync_file policy ~key:_ left right =
  let relation = File_copy.relation left right in
  let l, r, outcome =
    match relation with
    | (Relation.Equal | Relation.Concurrent)
      when String.equal (File_copy.content left) (File_copy.content right) ->
        (* equivalent copies, or concurrent histories (possibly
           unrelated lineages) with identical contents: observationally
           nothing to reconcile *)
        (left, right, Unchanged)
    | Relation.Dominates ->
        let l, r = File_copy.propagate ~from:left ~into:right in
        (l, r, Propagated_left_to_right)
    | Relation.Dominated ->
        let r, l = File_copy.propagate ~from:right ~into:left in
        (l, r, Propagated_right_to_left)
    | Relation.Equal | Relation.Concurrent -> (
        (* Different contents.  Equivalent stamps can then only mean
           the two copies were created independently (separate seed
           lineages share no causal context), so this is a genuine
           conflict even though the stamps cannot see it. *)
        let resolve content =
          let l, r = File_copy.resolve left right ~content in
          (l, r, Resolved)
        in
        match policy with
        | Manual -> (left, right, Conflict)
        | Prefer_left -> resolve (File_copy.content left)
        | Prefer_right -> resolve (File_copy.content right)
        | Merge f ->
            resolve
              (f ~left:(File_copy.content left)
                 ~right:(File_copy.content right)))
  in
  {
    E.item_a = l;
    item_b = r;
    relation;
    outcome;
    charge = charge_of outcome l r;
  }

let engine_config policy =
  { E.reconcile = sync_file policy; replicate = File_copy.replicate }

let spans =
  {
    E.span_session = "sync.session";
    span_apply = "sync.apply";
    unit_key = "files";
  }

let session ?(policy = Manual) left right =
  let left, right, reports =
    E.session ~spans (engine_config policy) left right
  in
  Obs.on (fun c ->
      Ledger.round c.Obs.ledger;
      List.iter
        (fun r ->
          Ledger.account c.Obs.ledger ~shipped:r.shipped ~minimal:r.minimal;
          Vstamp_obs.Metric.inc (c.Obs.files (outcome_slug r.outcome));
          Vstamp_obs.Metric.add c.Obs.bytes r.payload;
          if r.outcome = Conflict then Vstamp_obs.Metric.inc c.Obs.conflicts)
        reports);
  (left, right, reports)

(* Observational convergence: both stores hold every path with equal
   content.  (Stamp equivalence is deliberately not required: copies of
   colliding-but-independent lineages stay formally concurrent while
   being indistinguishable to any reader, and a session on them is a
   no-op.) *)
let converged left right =
  let held_by other c =
    match Store.find other (File_copy.path c) with
    | Some o -> String.equal (File_copy.content c) (File_copy.content o)
    | None -> false
  in
  Store.fold (fun c ok -> ok && held_by right c) left true
  && Store.fold (fun c ok -> ok && held_by left c) right true
