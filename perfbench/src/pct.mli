(** Order statistics with the sample-count rule (a percentile is
    reported only when at least ten samples lie beyond it). *)

val median : float array -> float
(** Median (mean of the two middle values for an even count); [nan]
    on an empty array. Does not modify its argument. *)

val percentile : float array -> float -> float option
(** [percentile xs p] is the nearest-rank [p]-th percentile of [xs]
    ({!Ftr_sim.Stats.percentile}), or [None] when fewer than ten
    samples lie above its rank. *)

val percentile_any : float array -> float -> float
(** Nearest-rank percentile without the sample-count rule ([nan] on
    an empty array): for quantities that are not latencies, such as
    generator lateness. *)

val mean : float array -> float
