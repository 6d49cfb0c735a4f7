let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let proc_stat () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | s -> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l)) (String.split_on_char '\n' s)
  | exception Sys_error _ -> []

(* The aggregate "cpu" line of /proc/stat; steal is its eighth counter,
   in USER_HZ ticks (100 per second on Linux). *)
let steal_s () =
  List.find_map
    (function
      | "cpu" :: fields when List.length fields >= 8 ->
          Option.map (fun t -> float_of_int t /. 100.) (int_of_string_opt (List.nth fields 7))
      | _ -> None)
    (proc_stat ())

let cpus () =
  max 1
    (List.length
       (List.filter
          (function
            | name :: _ -> String.length name > 3 && String.sub name 0 3 = "cpu"
            | [] -> false)
          (proc_stat ())))

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
