(** Persistence for traces and bus tapes (DESIGN.md §10).

    Two line-oriented, versioned formats plus one visualization export:

    - {b Trace JSONL}: header line [{"devil_trace_version":1}] followed
      by one JSON object per event ([seq] plus a ["kind"] tag naming
      one of the {!Trace.kind} constructors and its fields).
    - {b Tape JSONL}: header line [{"devil_tape_version":1}] followed
      by one JSON object per {!Bus.transfer}, for {!Bus.replaying}.
    - {b Chrome trace JSON}: the [about://tracing] / Perfetto event
      array — one thread per instance label, sequence numbers as
      timestamps, polls/retries/block transfers as duration spans.

    Parsing is total: malformed input yields [Error] with a position
    and reason, never an exception. A file whose version is newer than
    this build is rejected rather than misread. *)

(** The minimal JSON tree every format here shares, and the benchmark
    row artifacts (DESIGN.md §9) too. Traces and tapes only carry
    [int]s; [Float] is for measured values. A number with a fraction or
    an exponent parses as [Float], any other as [Int]; a [Float] always
    renders with one of the two (and a non-finite one as [null]). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val version : int
(** The schema version written by this build (1). *)

val json_to_string : json -> string
val json_of_string : string -> (json, string) result

val field : string -> json -> (json, string) result
(** An object's member, or why the value has none. *)

val as_string : string -> json -> (string, string) result
(** A string member ([as_string name obj]). *)

(** {1 Events} *)

val event_to_json : Trace.event -> json
val event_of_json : json -> (Trace.event, string) result

val events_to_jsonl : Trace.event list -> string
(** Header line plus one event per line. *)

val to_jsonl : Trace.t -> string
(** [events_to_jsonl (Trace.events t)]. *)

val events_of_jsonl : string -> (Trace.event list, string) result

val to_chrome : Trace.event list -> string
(** The [{"traceEvents": [...]}] JSON Chrome's [about://tracing] and
    Perfetto load directly. *)

(** {1 Profiles}

    Visualization exports for {!Profile}'s call-path trie (DESIGN.md
    §11). Both walk the trie and emit one entry per node with self
    time, so the rendered flame widths sum to the profiler's
    {!Profile.attributed_ns}. *)

val profile_to_folded : Profile.t -> string
(** Folded-stack lines (["root;child;leaf self_ns\n"]) —
    flamegraph.pl's input format, also accepted by speedscope. *)

val profile_to_speedscope : ?name:string -> Profile.t -> string
(** A speedscope JSON document (schema
    [https://www.speedscope.app/file-format-schema.json]): one
    ["sampled"] profile in nanoseconds whose samples are the trie
    paths weighted by self time. [name] titles the profile in the
    speedscope UI. *)

(** {1 Tapes} *)

val transfer_to_json : Bus.transfer -> json
val transfer_of_json : json -> (Bus.transfer, string) result
val tape_to_jsonl : Bus.tape -> string
val tape_of_jsonl : string -> (Bus.tape, string) result

(** {1 OpenMetrics}

    The Prometheus text exposition format, so a registry snapshot can
    be scraped or diffed by standard tooling. *)

val to_openmetrics :
  ?health:Health.report -> ?telemetry:Telemetry.t -> Metrics.t -> string
(** Renders the registry: every counter as [devil_<name>_total] (dots
    flattened to underscores) with a [# TYPE] line, every histogram as
    cumulative [devil_<name>_bucket{le="..."}] samples over the
    power-of-two bucket uppers plus [le="+Inf"], [_sum] and [_count].
    [devil_trace_dropped_events_total] is always present (0 when no
    trace fed the registry) so eviction alerts never miss their
    sample. With [telemetry], adds [devil_telemetry_ticks] and
    [devil_telemetry_series_evictions_total]; with [health], a
    [devil_health] gauge (0 ok / 1 degraded / 2 stalled — see
    {!Health.verdict_severity}) plus one
    [devil_health_reason{code="..."}] sample per firing reason. The
    output ends with the [# EOF] terminator. *)

(** {1 Telemetry series JSONL}

    Header line [{"devil_series_version":1, "hz":..., "ticks":...,
    "capacity":..., "series_evictions":...}] followed by one JSON
    object per retained sample point, flat across all series
    (counters first, then histograms, then health, each grouped by
    metric name in sorted order, points oldest first). [hz] travels as
    a ["%g"] string, as the version-1 format fixed before {!Float}. *)

type series_point =
  | S_counter of { sp_tick : int; sp_metric : string; sp_total : int;
                   sp_delta : int }
  | S_hist of { sh_tick : int; sh_metric : string; sh_count : int;
                sh_sum : int; sh_p50 : int; sh_p95 : int; sh_p99 : int }
  | S_health of { sl_tick : int; sl_verdict : string; sl_summary : string }

type series_file = {
  sf_hz : float;
  sf_ticks : int;
  sf_capacity : int;
  sf_evictions : int;
  sf_points : series_point list;  (** In file order. *)
}

val series_to_jsonl : Telemetry.t -> string
val series_of_jsonl : string -> (series_file, string) result

(** {1 Files} *)

val write_file : string -> string -> unit
(** [write_file path contents] — plain [open_out]/[output_string]. *)

val read_file : string -> (string, string) result
(** The whole file, or the [Sys_error] message. *)

val events_of_file : string -> (Trace.event list, string) result
val tape_of_file : string -> (Bus.tape, string) result
val series_of_file : string -> (series_file, string) result
