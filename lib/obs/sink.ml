type t = {
  write : Event.t -> unit;
  flush_now : unit -> unit;
  finish : unit -> unit;
  buffer : Event.t list ref option;
  mutable n : int;
}

let null =
  { write = ignore; flush_now = ignore; finish = ignore; buffer = None; n = 0 }

let memory () =
  let buf = ref [] in
  {
    write = (fun e -> buf := e :: !buf);
    flush_now = ignore;
    finish = ignore;
    buffer = Some buf;
    n = 0;
  }

let contents t = match t.buffer with Some buf -> List.rev !buf | None -> []

let to_file path =
  let oc = open_out path in
  let closed = ref false in
  (* Push buffered lines to the OS and to the disk, so a run cut short
     by a signal or an uncaught exception does not leave the JSONL
     truncated mid-line. *)
  let flush_now () =
    if not !closed then begin
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ()
    end
  in
  at_exit (fun () -> try flush_now () with Sys_error _ -> ());
  {
    write =
      (fun e ->
        output_string oc (Event.to_string e);
        output_char oc '\n');
    flush_now;
    finish =
      (fun () ->
        if not !closed then begin
          flush_now ();
          closed := true;
          close_out_noerr oc
        end);
    buffer = None;
    n = 0;
  }

let emit t e =
  t.n <- t.n + 1;
  t.write e

let tee a b =
  {
    write =
      (fun e ->
        emit a e;
        emit b e);
    flush_now =
      (fun () ->
        a.flush_now ();
        b.flush_now ());
    finish =
      (fun () ->
        a.finish ();
        b.finish ());
    buffer = None;
    n = 0;
  }

let of_fn write =
  { write; flush_now = ignore; finish = ignore; buffer = None; n = 0 }

let emitted t = t.n

let flush t = t.flush_now ()

let close t = t.finish ()
