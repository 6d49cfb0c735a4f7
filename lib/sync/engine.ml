open Vstamp_core

type outcome =
  | Created
  | Unchanged
  | Propagated_left_to_right
  | Propagated_right_to_left
  | Resolved
  | Conflict

let outcome_of_relation = function
  | Relation.Equal -> Unchanged
  | Relation.Dominates -> Propagated_left_to_right
  | Relation.Dominated -> Propagated_right_to_left
  | Relation.Concurrent -> Conflict

type charge = { meta_a : int; meta_b : int; payload : int }

let delta outcome { meta_a; meta_b; payload } =
  let shipped = meta_a + meta_b + payload in
  let minimal =
    match outcome with
    | Unchanged -> 0
    | Propagated_left_to_right -> meta_a + payload
    | Propagated_right_to_left -> meta_b + payload
    | Resolved | Conflict -> shipped
    | Created -> shipped
  in
  (shipped, minimal)

type report = {
  key : string;
  relation : Relation.t option;
  outcome : outcome;
  payload : int;
  shipped : int;
  minimal : int;
}

let rec ascending = function
  | (a, _, _) :: ((b, _, _) :: _ as rest) ->
      String.compare a b < 0 && ascending rest
  | _ -> true

module type STORE = sig
  type t

  type item

  type meta

  val fold : (string -> item -> 'a -> 'a) -> t -> 'a -> 'a

  val find : t -> string -> item option

  val set : t -> string -> item -> t

  val meta_of : item -> meta

  val relation : meta -> meta -> Relation.t

  val meta_bytes : meta -> int

  val payload_bytes : item -> int

  val digest : item -> string

  val of_meta : key:string -> meta -> item
end

module Make (S : STORE) = struct
  module Smap = Map.Make (String)

  type verdict = {
    item_a : S.item;
    item_b : S.item;
    relation : Relation.t;
    outcome : outcome;
    charge : charge;
  }

  type config = {
    reconcile : key:string -> S.item -> S.item -> verdict;
    replicate : S.item -> S.item * S.item;
  }

  type frontier = (string * S.meta * string) list

  type entry = { e_key : string; e_item : S.item }

  let offer store =
    List.rev
      (S.fold
         (fun key item acc -> (key, S.meta_of item, S.digest item) :: acc)
         store [])

  let check_ascending fn frontier =
    if not (ascending frontier) then
      invalid_arg (fn ^ ": frontier keys not strictly ascending")

  (* Leg 2's rule for an offered entry whose key is held here; a key
     not held here is always wanted. *)
  let wanted meta digest item =
    match S.relation meta (S.meta_of item) with
    | Relation.Dominates -> true
    | Relation.Dominated -> false
    | Relation.Equal | Relation.Concurrent ->
        not (String.equal digest (S.digest item))

  (* Merge the frontier with the store's entries, both ascending:
     [rest] is the part of the frontier not yet reached, and a key
     passed over before the next stored one is not held here. *)
  let wants store frontier =
    check_ascending "Engine.wants" frontier;
    let rest, wanted_rev =
      S.fold
        (fun key item (rest, acc) ->
          let rec drain rest acc =
            match rest with
            | [] -> (rest, acc)
            | (k, meta, digest) :: fs ->
                let c = String.compare k key in
                if c < 0 then drain fs (k :: acc)
                else if c > 0 then (rest, acc)
                else (fs, if wanted meta digest item then k :: acc else acc)
          in
          drain rest acc)
        store (frontier, [])
    in
    List.rev_append wanted_rev (List.map (fun (k, _, _) -> k) rest)

  let fulfil store wanted =
    List.filter_map
      (fun key ->
        Option.map (fun item -> { e_key = key; e_item = item })
          (S.find store key))
      wanted

  let reconcile config store frontier items =
    check_ascending "Engine.reconcile" frontier;
    let received =
      List.fold_left (fun m e -> Smap.add e.e_key e.e_item m) Smap.empty items
    in
    (* The one place a key's report is built.  [exchange] is the item
       kept here and the one sent back, [None] when the exchange is
       elided. *)
    let settle acc key exchange relation outcome charge =
      let store, results, reports = acc in
      let shipped, minimal = delta outcome charge in
      let payload = charge.payload in
      let report = { key; relation; outcome; payload; shipped; minimal } in
      match exchange with
      | None -> (store, results, report :: reports)
      | Some (kept, sent) ->
          ( S.set store key kept,
            { e_key = key; e_item = sent } :: results,
            report :: reports )
    in
    let created acc key exchange ~meta_a item =
      let charge = { meta_a; meta_b = 0; payload = S.payload_bytes item } in
      settle acc key (Some exchange) None Created charge
    in
    (* A key held here alone: replicate it for the initiator. *)
    let held_only acc key item =
      created acc key (config.replicate item)
        ~meta_a:(S.meta_bytes (S.meta_of item))
        item
    in
    (* A key offered alone: fork the delivered item, keep the peer
       branch.  One requested but not delivered is skipped, with no
       charge. *)
    let offered_only acc (key, meta, _) =
      match Smap.find_opt key received with
      | None -> acc
      | Some item ->
          let mine, theirs = config.replicate item in
          created acc key (theirs, mine) ~meta_a:(S.meta_bytes meta) item
    in
    let both acc key meta mine_item =
      let reconcile_with item_a =
        let v = config.reconcile ~key item_a mine_item in
        settle acc key
          (Some (v.item_b, v.item_a))
          (Some v.relation) v.outcome v.charge
      in
      match Smap.find_opt key received with
      | Some item_a -> reconcile_with item_a
      | None -> (
          match S.relation meta (S.meta_of mine_item) with
          | Relation.Dominated ->
              (* we dominate: rebuild the initiator's side from the
                 frontier alone — propagation never reads the dominated
                 payload *)
              reconcile_with (S.of_meta ~key meta)
          | rel ->
              (* observationally equal (matching digest): the exchange
                 is elided, only metadata compared *)
              let meta_a = S.meta_bytes meta in
              let meta_b = S.meta_bytes (S.meta_of mine_item) in
              let charge = { meta_a; meta_b; payload = 0 } in
              settle acc key None (Some rel) Unchanged charge)
    in
    (* Merge the offer with the store's entries, both ascending: the
       sorted union, each key once.  The fold reads the store it was
       given while the steps build the updated one, each touching only
       the key in hand. *)
    let acc, rest =
      S.fold
        (fun key item (acc, rest) ->
          let rec drain acc rest =
            match rest with
            | [] -> (held_only acc key item, rest)
            | ((k, meta, _) as f) :: fs ->
                let c = String.compare k key in
                if c < 0 then drain (offered_only acc f) fs
                else if c > 0 then (held_only acc key item, rest)
                else (both acc key meta item, fs)
          in
          drain acc rest)
        store
        ((store, [], []), frontier)
    in
    let store, results_rev, reports_rev = List.fold_left offered_only acc rest in
    (store, List.rev results_rev, List.rev reports_rev)

  let apply store results =
    List.fold_left (fun s e -> S.set s e.e_key e.e_item) store results

  type spans = {
    span_session : string;
    span_apply : string;
    unit_key : string;
  }

  let session_body config a b =
    let frontier = offer a in
    let wanted = wants b frontier in
    let items = fulfil a wanted in
    let b, results, reports = reconcile config b frontier items in
    (apply a results, b, reports)

  (* A session is one span; its trace context rides the session
     envelope (the header the on-the-wire protocol carries in its first
     frame), and the receiving side's work is a child span extracted
     from that header — so the remote half of every sync round
     continues the same trace, across processes once the envelope
     crosses a socket. *)
  let session ?spans config a b =
    let module Tr = Vstamp_obs.Trace_ctx in
    let module J = Vstamp_obs.Jsonx in
    match spans with
    | Some sp when Tr.attached () ->
        Tr.with_span sp.span_session (fun () ->
            let header =
              match Tr.current () with
              | Some ctx -> Tr.to_header ctx
              | None -> ""
            in
            let a, b, reports = session_body config a b in
            let conflicts_n =
              List.length
                (List.filter (fun (r : report) -> r.outcome = Conflict) reports)
            in
            Tr.annotate
              [
                (sp.unit_key, J.Int (List.length reports));
                ("conflicts", J.Int conflicts_n);
              ];
            Tr.with_remote_span ~header
              ~attrs:[ (sp.unit_key, J.Int (List.length reports)) ]
              sp.span_apply
              (fun () -> ());
            (a, b, reports))
    | _ -> session_body config a b
end
