(** The counter/histogram registry of the observability layer
    (DESIGN.md §8).

    A registry holds named monotonic counters and named histograms.
    The instrumented layers use a dotted naming convention, so the
    registry doubles as documentation of what is measured:

    {e Bus traffic} (from {!Bus.observed}) — transactions, elements and
    bytes are counted {e separately}, which is the accounting the cost
    model needs (one bus transaction per block transfer, one element
    per word moved):
    - [bus.reads], [bus.writes] — single transfers;
    - [bus.block_reads], [bus.block_writes] — block {e transactions};
    - [bus.read_items], [bus.write_items] — block {e elements};
    - [bus.bytes_read], [bus.bytes_written] — bytes moved (width / 8
      per element);
    - histogram [bus.block_len] — elements per block transfer.

    {e Stub-level} (from {!Instance}, [<dev>] is the instance label):
    - [io.<dev>.reg_reads], [io.<dev>.reg_writes] — register-level I/O;
    - [reg.<dev>.<reg>.reads], [reg.<dev>.<reg>.writes] — per register;
    - [cache.<dev>.hits], [cache.<dev>.misses] — idempotent-register
      cache outcomes (the hit ratio via {!ratio}).

    {e Recovery} (from {!Policy}):
    - [poll.runs], [poll.ticks], [poll.timeouts]; histogram
      [poll.iters] — condition evaluations per poll;
    - [retry.attempts] — operations re-executed after a transient
      failure; [retry.exhausted] — retry budgets that ran out.

    {e Faults} (from {!Fault}): [fault.injections] and
    [fault.<plan>.injections].

    {e Spans} (from {!Profile}, when a registry is attached to the
    profiler): histogram [span.<key>.ns] — wall time per completed span
    at each profiling site, so the JSON export carries
    [span.<key>.ns.p95]-style summaries.

    Like tracing, metrics are strictly opt-in: no layer counts anything
    unless a registry was passed in (or created from the
    [DEVIL_METRICS] environment variable via {!from_env}). *)

type t

val create : unit -> t

val from_env : unit -> t option
(** Reads [DEVIL_METRICS]: unset or ["0"]/["off"] (and friends)
    disable, ["1"]/["on"] enable. A malformed value prints a one-line
    warning to stderr with the accepted forms and enables metrics. *)

val parse_env_value : string -> (bool, string) result
(** The pure parser behind {!from_env}: [Ok enabled] or [Error why]
    for a malformed value. Exposed for testing. *)

val incr : t -> ?by:int -> string -> unit
(** Adds [by] (default 1) to a counter, creating it at zero first. *)

(** {2 Handles}

    The name-based {!incr} and {!observe} hash the name on every call;
    they are the one-shot form for cold paths. A hot path makes a
    handle once and updates through it in constant time, with no
    hashing and no allocation. A handle registers its name the first
    time it is used, so the listing ({!counters}, {!to_json}, the
    telemetry series) is the same as if every update had gone by name,
    and a handle that is never used lists nothing. A handle is bound
    to the registry it was made from. *)

module Counter : sig
  type registry := t
  type t

  val make : registry -> string -> t
  val incr : t -> unit

  val add : t -> int -> unit
  (** [add c n] is [incr reg ~by:n name]. *)
end

module Histogram : sig
  type registry := t
  type t

  val make : registry -> string -> t

  val observe : t -> int -> unit
  (** [observe h v] is [observe reg name v]. *)
end

val count : t -> string -> int
(** Current value; 0 for a counter never incremented. *)

val observe : t -> string -> int -> unit
(** Records a sample into a histogram, creating it first. *)

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;  (** Median estimate — see {!percentile}. *)
  p95 : int;
  p99 : int;
}

val histogram : t -> string -> hist_snapshot option

val percentile : t -> string -> float -> int option
(** [percentile t name q] estimates the [q]-quantile ([0 < q <= 1]) of
    a histogram from its power-of-two buckets: the estimate is the
    upper bound of the bucket holding the [ceil (q * count)]-th sample,
    clamped into the observed [min, max] (so a single-sample histogram
    reports that sample exactly). [None] when the histogram does not
    exist or is empty. *)

(** {2 Bucket layer}

    The histogram bucketing, exposed so {!Profile} aggregates its span
    latencies with the same layout and percentile semantics. *)

val bucket_count : int
(** Number of power-of-two buckets (24). *)

val bucket_of : int -> int
(** The bucket index for a sample: bucket 0 holds [v <= 0], bucket [i]
    holds [2^(i-1) <= v < 2^i], the last bucket everything above. *)

val bucket_upper : int -> int
(** The largest value bucket [i] can hold ([2^i - 1]; 0 for bucket 0).
    The last bucket is open-ended, which is why {!percentile} clamps to
    the observed maximum. *)

val bucket_percentile :
  count:int -> min_value:int -> max_value:int -> int array -> float -> int
(** The pure estimator behind {!percentile}, usable on any bucket array
    laid out by {!bucket_of}. *)

val hist_buckets : t -> string -> int array option
(** A copy of a histogram's raw bucket counts ({!bucket_count} wide) —
    what {!Telemetry} diffs between ticks for windowed percentiles and
    {!Trace_export.to_openmetrics} renders as Prometheus buckets. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val histograms : t -> (string * hist_snapshot) list

val ratio : t -> hits:string -> misses:string -> float option
(** [hits / (hits + misses)], or [None] when both are zero — e.g.
    [ratio m ~hits:"cache.ide.hits" ~misses:"cache.ide.misses"]. *)

val iter_counters : t -> (string -> int -> unit) -> unit
(** Every counter with its value, in no particular order: the walk
    {!Telemetry.tick} makes in place of the sorted {!counters}. *)

val iter_histograms :
  t -> (string -> count:int -> sum:int -> int array -> unit) -> unit
(** Every histogram with its count, sum and {e live} bucket array
    ({!bucket_count} wide; read it, do not keep or change it), in no
    particular order. *)

val merge : t -> t -> t
(** [merge a b] is a {e fresh} registry holding the pointwise sum of
    both: counters add; histograms add count/sum/buckets and take the
    min/max envelope. Neither input is touched. The fold is exact —
    every derived statistic (percentiles, mean, {!to_json}) of the
    merge equals what one registry fed the concatenated event stream
    would report — and is associative and commutative with
    [create ()] as identity, so per-shard registries can be folded in
    any order at snapshot time (ROADMAP item 2). *)

val to_json : t -> string
(** The whole registry as a JSON object
    [{ "counters": {..}, "histograms": {..} }] — the [obs] bench
    artifact. *)

val pp : Format.formatter -> t -> unit
