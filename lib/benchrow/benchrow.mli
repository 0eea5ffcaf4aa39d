(** The one benchmark-artifact format and its one validator
    (DESIGN.md §17).

    Every [bench] suite that persists results writes an artifact of
    rows. A row is one measured (or configured) number keyed by
    [(workload, layer, metric)] within its suite:

    {v
    {"devil_bench_version":1,"suite":"async","rows":[
    {"workload":"ide-queued-dma","layer":"e2e","metric":"ratio_vs_sync","unit":"ratio","value":2.595},
    ...
    ]}
    v}

    The JSON is written and read through {!Devil_runtime.Trace_export}.
    Each suite declares a {!suite}: the workloads and layers its rows
    may name, the metrics that may be null, and a table of {!gate}s.
    {!check} evaluates that declaration, and the same call runs in-run
    (the suite exits 1) and offline ([tools/benchcheck FILE]). *)

type row = {
  workload : string;
  layer : string;
      (** The engine on [benchjson] rows ([compiled], [interpreted]),
          the lifecycle stage on [latency] rows, [e2e] on
          whole-operation rows, [config] on rows recording how the run
          was set up. *)
  metric : string;
  unit : string;  (** One of {!units}. *)
  value : float option;
      (** [None] only where a suite declares the metric nullable (a
          1-run smoke with no bechamel estimate). *)
}

val units : string list
(** [ns], [us], [1/s], [count], [share], [ticks], [ratio]. *)

val time_units : string list
(** The units [benchcheck compare] reads as times: [ns], [us],
    [ticks]. *)

val row : string -> string -> string -> string -> float -> row
(** [row workload layer metric unit value]. *)

val fixed : int -> float -> float
(** [fixed n x] is [x] rounded to [n] decimals, the number ["%.nf"]
    prints — so a rerun reproduces a recorded row exactly. *)

type key = string * string * string
(** [(workload, layer, metric)]. *)

val key : row -> key
val key_to_string : key -> string

(** {1 Gates} *)

type bound = At_least of float | At_most of float | Exactly of float

type gate = key * bound
(** A gate fails when its row is missing or its value is outside the
    bound; a gate on a null value is skipped. *)

type suite = {
  name : string;  (** The artifact's ["suite"]. *)
  workloads : string list;  (** Rows naming any other workload are rejected. *)
  layers : string list;  (** Likewise for layers. *)
  nullable : string list;  (** Metrics whose value may be null. *)
  gates : gate list;
}

val check : suite -> row list -> string list
(** Every violation, in row order then gate order; [[]] when the rows
    pass. Besides the suite's gates, every row must have a unit from
    {!units}, a known workload and layer, a unique key, a value that is
    non-negative (every unit measures a magnitude), and a null value
    only on a nullable metric. *)

(** {1 Artifacts} *)

val write : string -> suite:string -> row list -> unit
(** [write path ~suite rows]: a header line, then one row per line. *)

val read : string -> (string * row list, string) result
(** [(suite, rows)], or why the file is not an artifact (version 1). *)
