exception Truncated

module Writer = struct
  type t = {
    buf : Buffer.t;
    mutable acc : int;  (* bits accumulated, most recent in low positions *)
    mutable used : int;  (* how many bits of [acc] are filled *)
    mutable total : int;
  }

  let create () = { buf = Buffer.create 64; acc = 0; used = 0; total = 0 }

  let bit w b =
    w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
    w.used <- w.used + 1;
    w.total <- w.total + 1;
    if w.used = 8 then begin
      Buffer.add_char w.buf (Char.chr w.acc);
      w.acc <- 0;
      w.used <- 0
    end

  (* Shift [value]'s low [width] bits into the accumulator and emit
     every completed byte.  The accumulator keeps fewer than 8 bits, so
     [width] up to 55 fits beside them in an int. *)
  let push w value width =
    let acc = (w.acc lsl width) lor (value land ((1 lsl width) - 1)) in
    let used = ref (w.used + width) in
    while !used >= 8 do
      used := !used - 8;
      Buffer.add_char w.buf (Char.unsafe_chr ((acc lsr !used) land 0xff))
    done;
    w.acc <- acc land ((1 lsl !used) - 1);
    w.used <- !used;
    w.total <- w.total + width

  let bits w ~value ~width =
    if width < 0 || width > 62 then invalid_arg "Bitio.Writer.bits: width";
    if value < 0 then invalid_arg "Bitio.Writer.bits: negative value";
    if width > 55 then begin
      push w (value lsr 31) (width - 31);
      push w value 31
    end
    else push w value width

  (* unsigned varint, 4-bit groups with a continuation bit: small numbers
     (the common case for counters and ids) cost 5 bits *)
  let varint w n =
    if n < 0 then invalid_arg "Bitio.Writer.varint: negative";
    let rec go n =
      if n < 16 then begin
        bit w false;
        bits w ~value:n ~width:4
      end
      else begin
        bit w true;
        bits w ~value:(n land 15) ~width:4;
        go (n lsr 4)
      end
    in
    go n

  let bit_length w = w.total

  let contents w =
    let tail =
      if w.used = 0 then ""
      else String.make 1 (Char.chr (w.acc lsl (8 - w.used)))
    in
    Buffer.contents w.buf ^ tail
end

module Reader = struct
  type t = { data : string; mutable pos : int (* in bits *) }

  let of_string data = { data; pos = 0 }

  let remaining_bits r = (String.length r.data * 8) - r.pos

  let bit r =
    let pos = r.pos in
    let i = pos lsr 3 in
    if i >= String.length r.data then raise Truncated;
    r.pos <- pos + 1;
    (Char.code (String.unsafe_get r.data i) lsr (7 - (pos land 7))) land 1 = 1

  let bits r ~width =
    if width < 0 || width > 62 then invalid_arg "Bitio.Reader.bits: width";
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor (if bit r then 1 else 0)
    done;
    !v

  let varint r =
    let rec go shift acc =
      if shift > 60 then raise Truncated;
      let continues = bit r in
      let group = bits r ~width:4 in
      (* at shift 60 only 2 bits remain below the sign bit *)
      if group lsr (62 - shift) <> 0 then raise Truncated;
      let acc = acc lor (group lsl shift) in
      if continues then go (shift + 4) acc else acc
    in
    go 0 0
end

let round_trip_bits n =
  let w = Writer.create () in
  Writer.varint w n;
  Writer.bit_length w
