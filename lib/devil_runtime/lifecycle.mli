(** Online reconstruction of queued-request lifecycles (DESIGN.md §15).

    {!Sched} mints a request id at {!Sched.submit} and threads it
    through every trace event the request causes. This module
    subscribes to a {!Trace} and rebuilds, per request, the causal arc

    {v
    submitted --queue_wait--> started --service--> irq_delivered
              --completion--> completed
    v}

    stamping each stage boundary with a caller-supplied clock. The
    five stages are:

    - [queue_wait] — submit to start (time spent behind other requests
      in the device FIFO);
    - [service] — start to interrupt delivery (the hardware doing the
      work); falls back to start-to-completion when the request
      completed without an observed interrupt;
    - [irq_delivery] — interrupt raised to acknowledged and dispatched
      (scheduler latency);
    - [completion] — handler dispatch to the request leaving the queue
      (driver completion-path cost);
    - [total] — submit to completion.

    With a metrics registry attached, each completed request feeds
    [lifecycle.<dev>.<stage>.<unit>] histograms, named by the clock's
    unit: [ns] on the default monotonic clock, [ticks] on a supplied
    clock or an offline replay (p50/p95/p99 via
    {!Metrics.histogram}) plus the counters [lifecycle.submitted],
    [lifecycle.completed], [lifecycle.lost_interrupts] and
    [lifecycle.spurious_completions]. Requests that never complete are
    {e orphans} — the stall signal {!Health} and the async gates
    check. *)

type record = {
  rid : int;  (** The request id (see {!Sched.request_id}). *)
  dev : string;
  label : string;
  submitted_at : int;
  mutable started_at : int;  (** -1 until the boundary is observed. *)
  mutable irq_raised_at : int;
  mutable irq_delivered_at : int;
  mutable completed_at : int;
  mutable ok : bool;  (** Meaningful once completed. *)
  mutable polls : int;  (** Polls run on the request's behalf. *)
  mutable retries : int;
  mutable late_completion : bool;
      (** A {!Trace.Queue_late} was matched to this (timed-out)
          request: its interrupt was lost, not absent. *)
}

type stage = Queue_wait | Service | Irq_delivery | Completion | Total

val stages : stage list
(** All five, in pipeline order. *)

val stage_label : stage -> string
(** The metric-vocabulary name: ["queue_wait"], ["service"],
    ["irq_delivery"], ["completion"], ["total"]. *)

val stage_ns : record -> stage -> int option
(** The stage's duration in clock units, [None] when either boundary
    was never observed (an orphan, or an arc truncated by ring
    eviction). *)

val complete : record -> bool

type t

val attach : ?clock:(unit -> int) -> ?metrics:Metrics.t -> Trace.t -> t
(** Subscribes to the trace and reconstructs lifecycles live. [clock]
    defaults to the monotonic wall clock in nanoseconds — the same
    clock {!Profile} stamps spans with; a supplied clock counts ticks,
    and the stage histograms say so. Subscribers cannot be removed
    (see {!Trace.subscribe}); attach to traces you own. *)

val of_events : ?metrics:Metrics.t -> Trace.event list -> t
(** Offline replay over a recorded event list (e.g. a JSONL trace file
    loaded by tracetool), using each event's sequence number as the
    clock — stage durations come out in trace-sequence ticks. *)

val window : int
(** Finished requests an {!attach}ed reconstruction keeps: 256. *)

val requests : t -> record list
(** The retained requests, in submit order. After {!of_events} that is
    every request observed. After {!attach} it is the open requests
    plus the last {!window} finished ones, so a long-lived machine
    holds a bounded set; the stage histograms and {!submitted} /
    {!completed} keep the totals. Records are live: an in-flight
    request's record fills in as its events arrive. *)

val orphans : t -> record list
(** Requests submitted but (not yet) completed, in submit order —
    after a drain, the requests whose completions were lost. Open
    requests are always retained. *)

val open_requests : t -> int
(** [List.length (orphans t)], kept as a count. *)

val find : t -> int -> record option
(** A retained request by id. *)

val submitted : t -> int
val completed : t -> int

val lost_interrupts : t -> int
(** Late completions matched to a timed-out request. *)

val spurious_completions : t -> int
(** Late completions with no timed-out predecessor. *)

val pp_record : Format.formatter -> record -> unit
(** One-line digest: id, device, label, outcome, per-stage durations
    (["?"] for unobserved stages). *)
