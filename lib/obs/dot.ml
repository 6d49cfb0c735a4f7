(* Inside a double-quoted DOT string only '"' and '\\' are significant;
   a line feed becomes the DOT escape and a carriage return is dropped,
   so one label stays on one line. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> ()
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
