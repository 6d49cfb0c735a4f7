open Vstamp_core

(* ASCII rendering of an execution in the spirit of the paper's Figure 2:
   one column per step, one row per replica lineage.  Forks open a new
   row for the right child, joins retire the higher row into the lower
   one; updates are marked with '*' (the paper's dotted arrows).

   Row bookkeeping mirrors the positional semantics: each frontier
   position maps to the display row currently carrying that replica. *)

type cell =
  | Blank
  | Pass  (* lineage continues: "--" *)
  | Star  (* update *)
  | Fork_parent
  | Fork_child
  | Join_survivor
  | Join_retired

type canvas = {
  mutable rows : int;
  cells : (int * int, cell) Hashtbl.t;  (* (row, column) -> cell *)
  mutable labels : (int * int * string) list;  (* row, column, text *)
}

let set canvas row col cell = Hashtbl.replace canvas.cells (row, col) cell

let render_ops ?stamps ops =
  let canvas = { rows = 1; cells = Hashtbl.create 64; labels = [] } in
  let columns = List.length ops + 1 in
  (* rows.(i) = display row of frontier position i *)
  let rows = ref [ 0 ] in
  (* the initial replica exists at the start column *)
  set canvas 0 0 Pass;
  let pass col =
    List.iter (fun r -> set canvas r col Pass) !rows
  in
  List.iteri
    (fun step op ->
      let col = step + 1 in
      pass col;
      match op with
      | Execution.Update i ->
          set canvas (List.nth !rows i) col Star
      | Execution.Fork i ->
          let parent_row = List.nth !rows i in
          let child_row = canvas.rows in
          canvas.rows <- canvas.rows + 1;
          set canvas parent_row col Fork_parent;
          set canvas child_row col Fork_child;
          rows :=
            Execution.fork_positions !rows i ~left:parent_row ~right:child_row
      | Execution.Join (i, j) ->
          let ri = List.nth !rows i and rj = List.nth !rows j in
          let survivor = min ri rj and retired = max ri rj in
          set canvas survivor col Join_survivor;
          set canvas retired col Join_retired;
          rows := Execution.join_positions !rows i j ~merged:survivor)
    ops;
  (* final stamps as labels at the last column *)
  (match stamps with
  | Some frontier ->
      List.iteri
        (fun i s ->
          canvas.labels <-
            (List.nth !rows i, columns, Stamp.to_string s) :: canvas.labels)
        frontier
  | None -> ());
  (canvas, columns)

let cell_text = function
  | Blank -> "    "
  | Pass -> "----"
  | Star -> "--*-"
  | Fork_parent -> "--+<"
  | Fork_child -> "  `-"
  | Join_survivor -> "--+-"
  | Join_retired -> "--'."

(* rows absent from the frontier at a column simply have no cell there,
   so lineages are blank before their birth and after their retirement *)
let render ?stamps ops =
  let canvas, columns = render_ops ?stamps ops in
  let buf = Buffer.create 256 in
  for row = 0 to canvas.rows - 1 do
    for col = 0 to columns - 1 do
      let cell =
        match Hashtbl.find_opt canvas.cells (row, col) with
        | Some c -> c
        | None -> Blank
      in
      Buffer.add_string buf (cell_text cell)
    done;
    List.iter
      (fun (r, _, label) ->
        if r = row then begin
          Buffer.add_string buf "  ";
          Buffer.add_string buf label
        end)
      canvas.labels;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_string ops = render ops

let header ops =
  let titles =
    "start" :: List.map Execution.op_to_string ops
  in
  String.concat " " titles

let draw ?with_stamps ops =
  let stamps =
    match with_stamps with
    | Some true -> Some (Execution.Run_stamps.run ops)
    | _ -> None
  in
  render ?stamps ops

(* Graphviz rendering goes through the causal-trace recorder so the DOT
   view and the [vstamp trace] forensics agree on structure and labels;
   escaping lives in [Causal_trace.to_dot]. *)
let to_dot ops =
  let tr, _ = Forensics.record Tracker.stamps ops in
  Vstamp_obs.Causal_trace.to_dot tr
