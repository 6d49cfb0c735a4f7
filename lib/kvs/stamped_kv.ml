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

  type t = string R.t Smap.t

  let empty : t = Smap.empty

  let keys t = List.map fst (Smap.bindings t)

  let mem t key = Smap.mem key t

  let get t key =
    match Smap.find_opt key t with None -> [] | Some r -> R.read r

  let stamp t key =
    Option.map R.stamp (Smap.find_opt key t)

  let put t ~key value =
    let r =
      match Smap.find_opt key t with
      | Some r -> R.write r value
      | None -> R.create value
    in
    Smap.add key r t

  let remove t key = Smap.remove key t

  let resolve t ~key ~value =
    match Smap.find_opt key t with
    | None -> put t ~key value
    | Some r -> Smap.add key (R.resolve r ~value) t

  let conflict t key =
    match Smap.find_opt key t with
    | Some r -> R.is_conflicted r
    | None -> false

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

    let keys = keys

    let find t key = Smap.find_opt key t

    let set t key item = Smap.add key item t

    let meta_of = R.stamp

    let relation = S.relation

    let meta_bytes m = (S.size_bits m + 7) / 8

    let payload_bytes = value_bytes

    let digest item =
      Digest.string (String.concat "\x00" (List.sort compare (R.read item)))

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
    let a, b, _reports =
      E.session ?ledger:!Obs.state ~spans engine_config a b
    in
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

  let to_frontier fs =
    List.map (fun f -> (f.E.f_key, f.E.f_meta, f.E.f_digest)) fs

  let of_frontier fs =
    List.map (fun (k, m, d) -> { E.f_key = k; f_meta = m; f_digest = d }) fs

  let to_delta es =
    List.map (fun e -> (e.E.e_key, R.stamp e.E.e_item, R.read e.E.e_item)) es

  let of_delta es =
    List.map
      (fun (k, stamp, vs) -> { E.e_key = k; e_item = R.restore ~stamp vs })
      es

  let offer t = to_frontier (E.offer t)

  let wants t frontier = E.wants t (of_frontier frontier)

  let fulfil t wanted = to_delta (E.fulfil t wanted)

  let reconcile ?tally t frontier items =
    let t, results, _reports =
      E.reconcile ?tally engine_config t (of_frontier frontier)
        (of_delta items)
    in
    (t, to_delta results)

  let apply t results = E.apply t (of_delta results)

  let converged a b =
    List.for_all
      (fun key ->
        match (Smap.find_opt key a, Smap.find_opt key b) with
        | Some ra, Some rb ->
            List.sort compare (R.read ra) = List.sort compare (R.read rb)
        | _ -> false)
      (List.sort_uniq String.compare (keys a @ keys b))

  let size_bits t =
    Smap.fold (fun _ r acc -> acc + S.size_bits (R.stamp r)) t 0

  let pp ppf t =
    Format.pp_print_list
      ~pp_sep:Format.pp_print_space
      (fun ppf (key, r) ->
        Format.fprintf ppf "%s=%a" key (R.pp Format.pp_print_string) r)
      ppf (Smap.bindings t)
end

module Over_tree = Make (Stamp.Over_tree)

include Over_tree
