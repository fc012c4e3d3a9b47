(** Order statistics of benchmark samples (the benchmark harness's
    summaries). *)

val median : float array -> float
(** The median; the mean of the two middle values of an even sample.
    @raise Invalid_argument on an empty sample. *)

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted a p]: the nearest-rank [p]-quantile ([p] in
    [\[0, 1\]]) of the ascending sample [a].
    @raise Invalid_argument on an empty sample. *)
