type slice = {
  name : string;
  cat : string;
  ts : int;
  dur : int;
  pid : int;
  tid : int;
  args : (string * Jsonx.t) list;
}

type flow = { id : int; src : slice; dst : slice }

let lane_events (pid, name) =
  let meta what args =
    Jsonx.Obj
      [
        ("name", Jsonx.String what);
        ("ph", Jsonx.String "M");
        ("pid", Jsonx.Int pid);
        ("tid", Jsonx.Int 0);
        ("args", Jsonx.Obj args);
      ]
  in
  [
    meta "process_name" [ ("name", Jsonx.String name) ];
    meta "process_sort_index" [ ("sort_index", Jsonx.Int pid) ];
  ]

let slice_event s =
  Jsonx.Obj
    [
      ("name", Jsonx.String s.name);
      ("cat", Jsonx.String s.cat);
      ("ph", Jsonx.String "X");
      ("ts", Jsonx.Int s.ts);
      ("dur", Jsonx.Int s.dur);
      ("pid", Jsonx.Int s.pid);
      ("tid", Jsonx.Int s.tid);
      ("args", Jsonx.Obj s.args);
    ]

let flow_events f =
  let arrow ph bind (s : slice) =
    Jsonx.Obj
      ([
         ("name", Jsonx.String "causal");
         ("cat", Jsonx.String "causal");
         ("ph", Jsonx.String ph);
       ]
      @ bind
      @ [
          ("id", Jsonx.Int f.id);
          ("ts", Jsonx.Int s.ts);
          ("pid", Jsonx.Int s.pid);
          ("tid", Jsonx.Int s.tid);
        ])
  in
  [ arrow "s" [] f.src; arrow "f" [ ("bp", Jsonx.String "e") ] f.dst ]

let trace ?generator ~lanes ~flows slices =
  Jsonx.Obj
    ([
       ( "traceEvents",
         Jsonx.List
           (List.concat_map lane_events lanes
           @ List.map slice_event slices
           @ List.concat_map flow_events flows) );
       ("displayTimeUnit", Jsonx.String "ms");
     ]
    @
    match generator with
    | Some g -> [ ("otherData", Jsonx.Obj [ ("generator", Jsonx.String g) ]) ]
    | None -> [])
