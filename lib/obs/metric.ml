(* --- counters --- *)

type counter = { mutable c : int }

let counter () = { c = 0 }

let inc x = x.c <- x.c + 1

let add x n =
  if n < 0 then invalid_arg "Metric.add: counters are monotone";
  x.c <- x.c + n

let count x = x.c

let reset_counter x = x.c <- 0

let increase ~prev v = if v < prev then (v, true) else (v -. prev, false)

(* --- gauges --- *)

type gauge = { mutable g : float }

let gauge () = { g = 0.0 }

let set x v = x.g <- v

let add_gauge x v = x.g <- x.g +. v

let value x = x.g

let reset_gauge x = x.g <- 0.0

(* --- histograms --- *)

(* Bucket 0 holds observations below 1; bucket i >= 1 holds
   [2^((i-1)/8), 2^(i/8)), i.e. 8 buckets per octave up to 2^63. *)

let sub_buckets = 8

let n_buckets = 1 + (sub_buckets * 63)

type histogram = {
  mutable n : int;
  mutable s : float;
  mutable lo : float;
  mutable hi : float;
  buckets : int array;
}

let histogram () =
  { n = 0; s = 0.0; lo = infinity; hi = neg_infinity; buckets = Array.make n_buckets 0 }

let bucket_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (Float.of_int sub_buckets *. Float.log2 v) in
    if i >= n_buckets then n_buckets - 1 else i

let observe h v =
  h.n <- h.n + 1;
  h.s <- h.s +. v;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v;
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1

let observe_int h v = observe h (float_of_int v)

let observations h = h.n

let sum h = h.s

let mean h = if h.n = 0 then 0.0 else h.s /. float_of_int h.n

let min_value h = if h.n = 0 then 0.0 else h.lo

let max_value h = if h.n = 0 then 0.0 else h.hi

(* geometric midpoint of bucket [i]'s bounds *)
let representative i =
  if i = 0 then 0.5
  else Float.pow 2.0 ((float_of_int i -. 0.5) /. float_of_int sub_buckets)

let quantile h q =
  if h.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.n))) in
    let rank = min h.n rank in
    let acc = ref 0 and found = ref (n_buckets - 1) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + h.buckets.(i);
         if !acc >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min h.hi (Float.max h.lo (representative !found))
  end

type percentiles = { p50 : float; p95 : float; p99 : float; max : float }

let percentiles h =
  {
    p50 = quantile h 0.50;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
    max = max_value h;
  }

let reset_histogram h =
  h.n <- 0;
  h.s <- 0.0;
  h.lo <- infinity;
  h.hi <- neg_infinity;
  Array.fill h.buckets 0 n_buckets 0
