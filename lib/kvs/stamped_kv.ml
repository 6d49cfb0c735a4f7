open Vstamp_core
module Engine = Vstamp_sync.Engine
module Ledger = Vstamp_sync.Ledger

(* Optional live instrumentation, off by default (mirrors Sync.Obs):
   when attached, every {!Make.sync} charges the anti-entropy walk to
   the delta ledger — bytes a full exchange ships (both replicas' stamp
   metadata per shared key, plus the candidate values that change
   hands) against the minimal frontier-exchange delta.  The counters
   are the shared {!Vstamp_sync.Ledger} family under the [kvs_sync_]
   prefix, shared by every instantiation of {!Make}. *)
module Obs = struct
  module R = Vstamp_obs.Registry

  let state : Ledger.counters option ref = ref None

  let attach ?(registry = R.default) () =
    state := Some (Ledger.counters ~registry ~prefix:"kvs_sync_" ())

  let detach () = state := None

  let attached () = Option.is_some !state
end

module Make (S : Stamp.S) = struct
  module R = Vstamp_crdt.Mv_register.Make (S)
  module Smap = Map.Make (String)

  (* The content digest is a sum of per-key fingerprints modulo 2^53:
     order-independent, so a write adjusts it by one key's terms, and
     exactly representable in the float gauge that exports it. *)
  let mask = (1 lsl 53) - 1

  (* A key's fingerprint covers the key and every byte of its sorted
     candidates: two chained passes of the runtime's string hash (30
     bits each, every byte), folded into 53 bits. *)
  let fingerprint key values =
    let pass seed =
      List.fold_left Hashtbl.seeded_hash (Hashtbl.seeded_hash seed key)
        (List.sort String.compare values)
    in
    ((pass 0x2545 lsl 23) lxor pass 0x9e37) land mask

  (* A register and its fingerprint share one map entry, so a write
     rebuilds one path of one map. *)
  type entry = { reg : string R.t; fp : int }

  type t = { map : entry Smap.t; count : int; digest : int }

  let empty = { map = Smap.empty; count = 0; digest = 0 }

  let keys t = List.map fst (Smap.bindings t.map)

  let cardinal t = t.count

  let digest t = t.digest

  let find t key = Option.map (fun e -> e.reg) (Smap.find_opt key t.map)

  let get t key = match find t key with None -> [] | Some r -> R.read r

  let stamp t key = Option.map R.stamp (find t key)

  (* Store [r] under [key], moving the count and the digest by this one
     key.  A register whose candidates are unchanged keeps its
     fingerprint. *)
  let set t key r =
    let values = R.read r in
    match Smap.find_opt key t.map with
    | None ->
        let fp = fingerprint key values in
        {
          map = Smap.add key { reg = r; fp } t.map;
          count = t.count + 1;
          digest = (t.digest + fp) land mask;
        }
    | Some old ->
        let fp =
          if List.equal String.equal (R.read old.reg) values then old.fp
          else fingerprint key values
        in
        {
          t with
          map = Smap.add key { reg = r; fp } t.map;
          digest = (t.digest - old.fp + fp) land mask;
        }

  let put t ~key value =
    set t key
      (match find t key with
      | Some r -> R.write r value
      | None -> R.create value)

  let value_bytes r =
    List.fold_left (fun acc v -> acc + String.length v) 0 (R.read r)

  (* The engine store adapter: keys map to multi-value registers, the
     register's stamp is the frontier metadata, and the digest
     fingerprints the sorted candidate set (equal digests mean a reader
     cannot tell the replicas apart). *)
  module ES = struct
    type nonrec t = t

    type item = string R.t

    type meta = S.t

    let fold f t init = Smap.fold (fun key e acc -> f key e.reg acc) t.map init

    let find = find

    let set = set

    let meta_of = R.stamp

    let relation = S.relation

    let meta_bytes m = (S.size_bits m + 7) / 8

    let payload_bytes = value_bytes

    (* The MD5 of the sorted candidates joined by NULs.  One candidate
       joins to itself, so it is hashed in place: no sort, and no copy
       of a value that may be 64 KiB. *)
    let digest item =
      match R.read item with
      | [ v ] -> Digest.string v
      | vs -> Digest.string (String.concat "\x00" (List.sort compare vs))

    let of_meta ~key:_ m = R.restore ~stamp:m []
  end

  module E = Engine.Make (ES)

  (* One key's reconciliation: charge the walk on the {e pre}-sync
     registers (what an exchange of the current replicas ships), then
     let the register merge and re-fork.  A full walk ships both stamps
     and the candidate values that change hands; the frontier-exchange
     minimum skips equivalent keys entirely and ships only the dominant
     side for ordered ones. *)
  let engine_config =
    {
      E.reconcile =
        (fun ~key:_ ra rb ->
          let ma = ES.meta_bytes (R.stamp ra)
          and mb = ES.meta_bytes (R.stamp rb) in
          let relation = R.relation ra rb in
          let payload =
            match relation with
            | Relation.Equal -> 0
            | Relation.Dominates -> value_bytes ra
            | Relation.Dominated -> value_bytes rb
            | Relation.Concurrent -> value_bytes ra + value_bytes rb
          in
          let ra', rb' = R.sync ra rb in
          {
            E.item_a = ra';
            item_b = rb';
            relation;
            outcome = Engine.outcome_of_relation relation;
            charge = { Engine.meta_a = ma; meta_b = mb; payload };
          });
      replicate = R.fork;
    }

  let spans =
    { E.span_session = "kvs.sync"; span_apply = "kvs.apply"; unit_key = "keys" }

  let sync a b =
    let a, b, reports = E.session ~spans engine_config a b in
    Option.iter
      (fun c ->
        Ledger.round c;
        List.iter
          (fun (r : Engine.report) ->
            Ledger.account c ~shipped:r.shipped ~minimal:r.minimal)
          reports)
      !Obs.state;
    (a, b)

  (* --- wire-level legs ---

     The same session, split for a transport: each leg takes and
     returns plain serializable data (stamps and strings), so the
     framed protocol in [Vstamp_net] can ship them and still produce
     byte-identical stores.  The legs deliberately do not touch the
     attached [kvs_sync_*] ledger — a networked round accounts to its
     own [tally]. *)

  type frontier = (string * S.t * string) list

  type delta = (string * S.t * string list) list

  let to_delta es =
    List.map (fun e -> (e.E.e_key, R.stamp e.E.e_item, R.read e.E.e_item)) es

  let of_delta es =
    List.map
      (fun (k, stamp, vs) -> { E.e_key = k; e_item = R.restore ~stamp vs })
      es

  let offer = E.offer

  let wants = E.wants

  let fulfil t wanted = to_delta (E.fulfil t wanted)

  (* A result whose reconciled candidates are exactly the ones the
     initiator shipped (it dominated, or held the key alone) goes back
     stamp-only: the initiator keeps its candidates and adopts the
     stamp, so a propagated value crosses the wire once.  A stored
     register always holds a candidate, so [[]] never names a real
     one. *)
  let reconcile ?tally t frontier items =
    let t, results, reports =
      E.reconcile engine_config t frontier (of_delta items)
    in
    Option.iter
      (fun tally ->
        List.iter
          (fun (r : Engine.report) ->
            Ledger.add tally ~shipped:r.shipped ~minimal:r.minimal)
          reports)
      tally;
    let shipped =
      List.fold_left (fun m (k, _, vs) -> Smap.add k vs m) Smap.empty items
    in
    let half e =
      let values = R.read e.E.e_item in
      match Smap.find_opt e.E.e_key shipped with
      | Some vs when List.equal String.equal vs values ->
          (e.E.e_key, R.stamp e.E.e_item, [])
      | _ -> (e.E.e_key, R.stamp e.E.e_item, values)
    in
    (t, List.map half results)

  (* A stamp-only entry keeps the candidates held here; for a key this
     replica does not hold there is nothing to keep, so it is dropped. *)
  let apply t results =
    List.fold_left
      (fun t (key, stamp, values) ->
        match (values, find t key) with
        | [], None -> t
        | [], Some r -> set t key (R.restore ~stamp (R.read r))
        | values, _ -> set t key (R.restore ~stamp values))
      t results

  let converged a b =
    List.for_all
      (fun key ->
        match (find a key, find b key) with
        | Some ra, Some rb ->
            List.sort compare (R.read ra) = List.sort compare (R.read rb)
        | _ -> false)
      (List.sort_uniq String.compare (keys a @ keys b))
end

module Over_tree = Make (Stamp.Over_tree)

include Over_tree
