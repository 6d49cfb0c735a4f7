open Vstamp_core

(* Distributed synchronization by identity handoff.

   A node that wants to sync sends its whole replica (wire-encoded stamp
   plus its history mirror) to the peer and retires locally; the peer
   joins, forks, keeps one half and returns the other; the initiator
   adopts the returned half.  While the initiator waits it performs no
   updates — its identity is in flight.  Messages may be delayed and
   reordered arbitrarily; they are never duplicated or dropped (the
   mechanism, like version vectors, needs a reliable transport for
   replica hand-off; loss tolerance is an orthogonal concern). *)

type node_state =
  | Idle of Stamp.t * Causal_history.t
  | Waiting  (* identity in flight towards a peer *)

type message =
  | Sync_request of { from : int; stamp_wire : string; history : Causal_history.t }
  | Sync_reply of { stamp_wire : string; history : Causal_history.t }

type t = {
  nodes : node_state array;
  inflight : (int * message) list;  (* destination, payload *)
  gen : Causal_history.Gen.t;
  delivered : int;
  updates : int;
  syncs_started : int;
}

exception Protocol_error of string

let decode wire =
  match Vstamp_codec.Wire.stamp_of_string wire with
  | Ok s -> s
  | Error e ->
      raise
        (Protocol_error (Format.asprintf "bad stamp on the wire: %a"
                           Vstamp_codec.Wire.pp_error e))

let create ~nodes:n =
  if n < 1 then invalid_arg "Network.create: need at least one node";
  (* the initial replica is forked out locally, node 0 holding the first *)
  let stamps = Stamp.fork_many Stamp.seed n in
  {
    nodes =
      Array.of_list (List.map (fun s -> Idle (s, Causal_history.empty)) stamps);
    inflight = [];
    gen = Causal_history.Gen.initial;
    delivered = 0;
    updates = 0;
    syncs_started = 0;
  }

let node_count t = Array.length t.nodes

let is_idle t i =
  match t.nodes.(i) with Idle _ -> true | Waiting -> false

let stamp_of t i =
  match t.nodes.(i) with Idle (s, _) -> Some s | Waiting -> None

let inflight_count t = List.length t.inflight

let quiescent t =
  t.inflight = [] && Array.for_all (function Idle _ -> true | Waiting -> false) t.nodes

let update t i =
  match t.nodes.(i) with
  | Waiting -> None
  | Idle (s, h) ->
      let e, gen = Causal_history.Gen.fresh t.gen in
      let nodes = Array.copy t.nodes in
      nodes.(i) <- Idle (Stamp.update s, Causal_history.add_event e h);
      Some { t with nodes; gen; updates = t.updates + 1 }

let start_sync t ~from ~target =
  if from = target then invalid_arg "Network.start_sync: self sync";
  match t.nodes.(from) with
  | Waiting -> None
  | Idle (s, h) ->
      let nodes = Array.copy t.nodes in
      nodes.(from) <- Waiting;
      let msg =
        Sync_request
          { from; stamp_wire = Vstamp_codec.Wire.stamp_to_string s; history = h }
      in
      Some
        {
          t with
          nodes;
          inflight = (target, msg) :: t.inflight;
          syncs_started = t.syncs_started + 1;
        }

(* Deliver the k-th in-flight message (k indexes the current list —
   callers pick it from an Rng to model arbitrary reordering). *)
let deliver t k =
  match List.nth_opt t.inflight k with
  | None -> None
  | Some (dst, msg) ->
      let inflight = List.filteri (fun i _ -> i <> k) t.inflight in
      let nodes = Array.copy t.nodes in
      let t = { t with inflight; delivered = t.delivered + 1 } in
      (match (msg, nodes.(dst)) with
      | Sync_request { from; stamp_wire; history }, Idle (s, h) ->
          let incoming = decode stamp_wire in
          let joined = Stamp.join s incoming in
          let mine, theirs = Stamp.fork joined in
          let merged_history = Causal_history.union h history in
          nodes.(dst) <- Idle (mine, merged_history);
          let reply =
            Sync_reply
              {
                stamp_wire = Vstamp_codec.Wire.stamp_to_string theirs;
                history = merged_history;
              }
          in
          Some { t with nodes; inflight = (from, reply) :: t.inflight }
      | Sync_request { from; stamp_wire; history }, Waiting ->
          (* the peer's identity is itself in flight: bounce the replica
             straight back to its owner (a refused sync), which keeps the
             system deadlock-free when two nodes request each other *)
          let bounce = Sync_reply { stamp_wire; history } in
          Some { t with inflight = (from, bounce) :: t.inflight }
      | Sync_reply { stamp_wire; history }, Waiting ->
          nodes.(dst) <- Idle (decode stamp_wire, history);
          Some { t with nodes }
      | Sync_reply _, Idle _ ->
          raise (Protocol_error "reply delivered to a node that is not waiting"))

(* --- random driver --- *)

(* The remaining probability mass delivers a random in-flight message. *)
let p_update = 0.45

let p_sync = 0.25

let step rng t =
  let n = node_count t in
  let roll, rng = Rng.float rng in
  if roll < p_update then
    let i, rng = Rng.int rng n in
    match update t i with Some t' -> (t', rng) | None -> (t, rng)
  else if roll < p_update +. p_sync && n >= 2 then
    let i, rng = Rng.int rng n in
    let j0, rng = Rng.int rng (n - 1) in
    let j = if j0 >= i then j0 + 1 else j0 in
    match start_sync t ~from:i ~target:j with
    | Some t' -> (t', rng)
    | None -> (t, rng)
  else if inflight_count t > 0 then
    let k, rng = Rng.int rng (inflight_count t) in
    match deliver t k with Some t' -> (t', rng) | None -> (t, rng)
  else (t, rng)

let drain t =
  let rec go t guard =
    if guard = 0 then raise (Protocol_error "drain did not terminate")
    else if inflight_count t = 0 then t
    else
      match deliver t 0 with
      | Some t' -> go t' (guard - 1)
      | None -> t
  in
  go t (1000 + (inflight_count t * 4))

let run ~seed ~steps ~nodes () =
  let rec go rng t k =
    if k = 0 then drain t
    else
      let t, rng = step rng t in
      go rng t (k - 1)
  in
  go (Rng.make seed) (create ~nodes) steps

(* --- whole-network checks --- *)

let live_pairs t =
  let pairs = ref [] in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          match (si, sj) with
          | Idle (a, ha), Idle (b, hb) when i <> j ->
              pairs := ((a, ha), (b, hb)) :: !pairs
          | _ -> ())
        t.nodes)
    t.nodes;
  !pairs

let consistent_with_oracle t =
  List.for_all
    (fun ((a, ha), (b, hb)) ->
      Stamp.leq a b = Causal_history.subset ha hb)
    (live_pairs t)

let frontier t =
  Array.to_list t.nodes
  |> List.filter_map (function Idle (s, _) -> Some s | Waiting -> None)

let stats t = (t.updates, t.syncs_started, t.delivered)
