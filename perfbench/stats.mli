(** Order statistics for the benchmark's reports. *)

val percentile : p:float -> float list -> float
(** Nearest-rank percentile, [p] in (0, 1].
    @raise Invalid_argument on an empty list. *)

val tail_percentile : p:float -> float list -> (float, string) result
(** {!percentile}, or [Error] when fewer than 10 samples lie beyond it —
    a p90 needs at least 100 samples. *)

val median : float list -> float
(** Middle sample; the mean of the two middle samples for an even count.
    @raise Invalid_argument on an empty list. *)

val sum : float list -> float
