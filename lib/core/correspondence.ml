module Make (S : Stamp.S) = struct
  type counterexample = {
    position : int;
    subset : int list;
    stamp_leq : bool;
    history_subset : bool;
  }

  let pp_counterexample ppf c =
    Format.fprintf ppf
      "element %d vs {%a}: stamps say %b, histories say %b" c.position
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Format.pp_print_int)
      c.subset c.stamp_leq c.history_subset

  (* Enumerate the non-empty subsets of positions [0..n-1] as bitmasks.
     Frontiers in the property tests stay small (<= ~12), so 2^n is
     tolerable; [max_subset_size] caps the width otherwise. *)
  let subsets ?max_subset_size n =
    let cap = match max_subset_size with Some c -> c | None -> n in
    let masks = ref [] in
    for mask = (1 lsl n) - 1 downto 1 do
      let members = ref [] in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then members := i :: !members
      done;
      if List.length !members <= cap then masks := !members :: !masks
    done;
    !masks

  let pairwise_counterexample stamps histories =
    let s = Array.of_list stamps and h = Array.of_list histories in
    assert (Array.length s = Array.length h);
    let n = Array.length s in
    let found = ref None in
    (try
       for x = 0 to n - 1 do
         for y = 0 to n - 1 do
           let stamp_leq = S.leq s.(x) s.(y) in
           let history_subset = Causal_history.subset h.(x) h.(y) in
           if stamp_leq <> history_subset then begin
             found :=
               Some { position = x; subset = [ y ]; stamp_leq; history_subset };
             raise Exit
           end
         done
       done
     with Exit -> ());
    !found

  let pairwise_agree stamps histories =
    pairwise_counterexample stamps histories = None

  let set_counterexample stamps histories =
    let s = Array.of_list stamps and h = Array.of_list histories in
    assert (Array.length s = Array.length h);
    let n = Array.length s in
    let found = ref None in
    (try
       List.iter
         (fun subset ->
           let sub_stamps = List.map (fun i -> s.(i)) subset in
           let sub_hist = List.map (fun i -> h.(i)) subset in
           for x = 0 to n - 1 do
             let stamp_leq = S.dominated_by_join s.(x) sub_stamps in
             let history_subset =
               Causal_history.subset_of_union h.(x) sub_hist
             in
             if stamp_leq <> history_subset then begin
               found := Some { position = x; subset; stamp_leq; history_subset };
               raise Exit
             end
           done)
         (subsets n)
     with Exit -> ());
    !found

  let set_agree stamps histories =
    set_counterexample stamps histories = None
end
