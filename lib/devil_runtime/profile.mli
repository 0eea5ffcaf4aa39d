(** The hierarchical span profiler of the observability layer
    (DESIGN.md §11).

    A profiler turns nested [enter]/[exit] pairs — driver operation,
    variable/structure/block access, action, bus transfer — into two
    online aggregates:

    - a {b call-path trie} (one node per distinct key stack) carrying
      call counts plus total (inclusive) and self (exclusive)
      nanoseconds, walked by {!Trace_export.profile_to_folded} and
      {!Trace_export.profile_to_speedscope};
    - a flat {b site table} keyed by span key alone, with the same
      log-bucket layout as {!Metrics} histograms, summarised to
      p50/p95/p99 by {!sites}.

    Span keys extend the [Devil_ir.Sites.site_id] vocabulary with an
    instance-label prefix: ["ide/var:sector_count:write"],
    ["gfx/struct:FillRect:write"], ["uart/action:dlab:pre"], plus the
    non-instance families ["bus:read"], ["poll:<label>"],
    ["retry:<label>"] and caller-chosen roots (["driver:<workload>"]).

    The arithmetic guarantees [self = total - sum(children's total)]
    at every node (clamped at 0 against clock jitter), so self time
    summed over the whole trie equals the root spans' total time —
    the attribution identity [bench profile] reports.

    Strictly opt-in like {!Trace} and {!Metrics}: instrumented layers
    match their [t option] first, and the disabled path allocates
    nothing ({!Bus.observed} stays the identity). The clock is
    CLOCK_MONOTONIC in nanoseconds (bechamel's stub), substitutable for
    deterministic tests via {!set_clock}. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh profiler. With [metrics], every completed span is also
    observed into the registry's [span.<key>.ns] histogram, giving the
    JSON export [span.<key>.ns.p95]-style summaries. *)

val set_metrics : t -> Metrics.t option -> unit

val set_clock : t -> (unit -> int) -> unit
(** Replace the nanosecond clock (tests use a deterministic counter).
    Samples are clamped monotonic: a clock that steps backwards reads
    as standing still. *)

(** {1 Spans} *)

type span
(** An open span, to be closed with {!exit}. Closing a span also closes
    any still-open spans nested inside it, so an exception that blows
    through nested [enter]s cannot corrupt the stack — which is why
    every instrumented site either uses {!span} or pairs
    {!enter}/{!exit} on both the return and the raise path. *)

val enter : t -> string -> span
val exit : t -> span -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t key f] runs [f] inside a [key] span, closing it whether [f]
    returns or raises. *)

val leaf : t -> string -> int -> unit
(** [leaf t key ns] records a completed child span of known duration
    under the currently open span (or at the root) without touching the
    stack — for work timed outside the profiler. *)

(** {1 Aggregates} *)

type site_stats = {
  calls : int;
  total_ns : int;
  self_ns : int;
  min_ns : int;
  max_ns : int;
  p50_ns : int;  (** Percentiles of per-call total time, estimated from
                     the log buckets exactly as {!Metrics.percentile}. *)
  p95_ns : int;
  p99_ns : int;
}

val sites : t -> (string * site_stats) list
(** The flat site table, sorted by key. *)

val site : t -> string -> site_stats option

(** The call-path trie. Children are sorted by key; a node's name is
    its span key (the same string can name nodes under different
    parents — that is the point). *)

type node

val roots : t -> node list
val node_name : node -> string
val node_count : node -> int
val node_total_ns : node -> int
val node_self_ns : node -> int
val node_children : node -> node list

val total_ns : t -> int
(** Total time under the root spans (sum of the roots' inclusive
    time). *)

val attributed_ns : t -> int
(** Self time summed over every node. Equal to {!total_ns} up to clock
    clamping — the "self sums to total" identity behind
    [bench profile]'s attribution column. *)

val live_depth : t -> int
(** Currently open spans (0 when quiescent). *)

val unbalanced_exits : t -> int
(** Exits that found their span already closed — always 0 unless
    enter/exit pairing is broken somewhere. *)

val reset : t -> unit
(** Drop all aggregates (not the clock, metrics link, or open-span
    bookkeeping of a quiescent profiler). *)

val merge : t -> t -> t
(** [merge a b] is a {e fresh} quiescent profiler: the call-path tries
    united by key path (count/total/self summed per node) and the site
    tables summed pointwise (min/max envelope, buckets added). Neither
    input is touched; both should be quiescent ({!live_depth} 0) —
    open spans are not carried over. The fold preserves the
    [attributed_ns = total_ns] identity and the site percentiles, is
    associative and commutative, and has [create ()] as identity —
    the per-shard folding discipline of ROADMAP item 2, pinned by
    test_telemetry's QCheck laws. The merged profiler has no metrics
    link and the default clock. *)
