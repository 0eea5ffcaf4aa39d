(** The deterministic-tick time-series sampler (DESIGN.md §16).

    A telemetry handle watches one {!Metrics.t} registry and, on every
    explicit {!tick}, snapshots each metric into a bounded per-metric
    ring:

    - every counter gets a {!counter_point} — the cumulative total and
      the {e delta} since the previous tick, the windowed rate;
    - every histogram gets a {!hist_point} — the count/sum delta plus
      {e windowed} p50/p95/p99 computed from the bucket-array delta
      with the same estimator as {!Metrics.percentile}, so per-window
      tail latency is available alongside (and clearly distinct from)
      the lifetime percentiles;
    - optionally a {!health_point} per tick records the {!Health}
      verdict trajectory.

    The clock is the tick counter itself — the same explicit-clock
    discipline as {!Lifecycle.of_events} driving lifecycle off trace
    sequence numbers — so replaying a trace and ticking at the same
    points produces a {e byte-identical} series; nothing here reads
    wall time.

    Rings evict oldest-first at constant space like {!Trace}'s ring;
    {!evictions} totals drops across all series so dashboards
    ([tracetool top]) can warn loudly when the window has been
    shortened. Strictly opt-in like the rest of the layer: the machine
    holds a [Telemetry.t option] and the disabled path is one [option]
    match — it neither samples nor allocates. *)

type t

type counter_point = {
  at : int;  (** The tick (1-based) this sample was taken on. *)
  total : int;  (** Cumulative counter value at the tick. *)
  delta : int;  (** Increase since the previous tick (whole value on
                    the first tick a counter is seen). *)
}

type hist_point = {
  h_at : int;
  h_count : int;  (** Samples observed within the window. *)
  h_sum : int;
  h_p50 : int;
      (** Windowed percentiles, estimated from the bucket delta exactly
          as {!Metrics.percentile} estimates lifetime ones; 0 when the
          window saw no samples. *)
  h_p95 : int;
  h_p99 : int;
}

type health_point = {
  hp_at : int;
  hp_verdict : string;  (** {!Health.verdict_label} of the report. *)
  hp_summary : string;  (** {!Health.summary} — verdict plus reasons. *)
}

val default_capacity : int
(** 64 samples per series. *)

val create : ?capacity:int -> Metrics.t -> t
(** A sampler over [metrics]. [capacity] bounds every per-metric ring
    (clamped to at least 1). *)

val tick : ?health:Health.report -> t -> unit
(** Advance the tick clock and sample every metric currently in the
    registry. With [health], also record the verdict for this tick. *)

val ticks : t -> int
(** Ticks taken so far (the [at] of the newest points). *)

val capacity : t -> int
val metrics : t -> Metrics.t

val counter_names : t -> string list
(** Counters that have been sampled at least once, sorted. *)

val hist_names : t -> string list

val counter_series : t -> string -> counter_point list
(** Retained points, oldest first; [[]] for an unknown metric. *)

val hist_series : t -> string -> hist_point list
val health_series : t -> health_point list

val evictions : t -> int
(** Points evicted by the ring bound, summed over every series
    (counter, histogram and health) — nonzero means the visible window
    is shorter than the run, which [tracetool top] banners loudly. *)
