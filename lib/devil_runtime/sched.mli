(** The event-driven driver scheduler (DESIGN.md §13).

    One deterministic event loop replaces per-driver spin loops for
    completion-signalled operations: devices assert interrupt lines,
    the loop acknowledges the controller, dispatches the registered
    handler, and handlers complete queued requests. Time is the same
    simulated currency {!Policy} uses — {e ticks} — advanced by
    {!tick}; a timer wheel bounds every queued request, and a request
    whose interrupt never arrives fails through exactly the classified
    error path a timed-out poll takes: [Driver_error (Timeout label)].

    The scheduler knows nothing about any concrete interrupt
    controller: it drives an abstract {!controller} of three closures
    (assert a line, acknowledge, end-of-interrupt). The machine layer
    wires these to the simulated 8259A — acknowledge and EOI as real
    bus traffic (the OCW3 poll-command handshake), so interrupt
    delivery itself is traced, counted, fault-injectable and
    replayable like any other I/O the driver performs.

    Interrupt line {e sources} are level-triggered: every tick samples
    each registered source and re-asserts its line while the device
    holds its INT output high. A delivery lost to a transient fault on
    the acknowledge path is therefore re-raised on the next tick —
    drivers recover from lost interrupts without any driver-visible
    retry — while a persistently lost interrupt surfaces as the
    request's classified timeout.

    Metrics vocabulary (when a registry is attached):
    [sched.ticks], [sched.irqs.raised], [sched.irqs.delivered],
    [sched.irqs.unhandled], [sched.irqs.faults], [sched.irqs.storms],
    [sched.submits], [sched.completions], [sched.timeouts],
    [sched.handler_errors]; histograms [sched.queue.depth] (sampled at
    each submit) and [sched.queue.wait_ticks] (virtual ticks from
    submit to completion). Trace events: {!Trace.Irq_raised},
    {!Trace.Irq_delivered}, {!Trace.Queue_submitted},
    {!Trace.Queue_started}, {!Trace.Queue_completed},
    {!Trace.Queue_late}.

    Every submitted request is minted a {e request id} — monotonically
    increasing per scheduler, starting at 1, never reused — threaded
    through each trace event the request causes (submit, start, the
    irq that answers it, completion, and the {!Policy} poll/retry
    events its thunks run: around a request's start thunk, its
    interrupt handler, its timeout abort and its [on_done], the
    scheduler parks the id in its context's request cell
    ({!Ctx.serving}), which the combinators read. The id is what lets
    {!Lifecycle} reconstruct a request's causal arc from the flat
    event stream. *)

type controller = {
  ctl_raise : line:int -> unit;
      (** Assert interrupt request [line] at the controller (a wire,
          not bus traffic). *)
  ctl_ack : unit -> int option;
      (** Acknowledge: the highest-priority pending unmasked line, now
          moved into service — [None] when nothing is pending (a
          spurious check). Typically the 8259A OCW3 poll-command
          sequence, i.e. real bus traffic. *)
  ctl_eoi : line:int -> unit;
      (** End-of-interrupt for [line] (specific EOI). *)
}

type t

val create : ?ctx:Ctx.t -> controller -> t
(** A scheduler reporting to [ctx]'s trace, metrics and profiler and
    parking request ids in its request cell — give it the context of
    the instances whose drivers it runs. Without one it observes
    nothing. *)

(** {1 Interrupt wiring} *)

val add_source : t -> line:int -> dev:string -> (unit -> bool) -> unit
(** [add_source t ~line ~dev asserted] registers a level-triggered INT
    pin: every tick samples [asserted ()] and raises [line] at the
    controller while it holds. Several sources may share a line
    (wire-OR). [dev] labels the source in traces. *)

val set_handler : t -> line:int -> dev:string -> (unit -> unit) -> unit
(** Registers the interrupt service routine dispatched when [line] is
    acknowledged. One handler per line (the last registration wins).
    The handler runs inside {!Policy.guarded}, so raw faults escaping
    it are classified; a classified error fails [dev]'s in-flight
    request (if any) rather than escaping the loop. *)

val note_int : t -> bool -> unit
(** The controller's INT-output edge: the machine wires the 8259A
    model's INT callback here so the loop only spends acknowledge bus
    cycles when the line is actually high — and re-dispatches
    immediately when an EOI uncovers a queued lower-priority request
    (the hardware re-evaluates; so must we). *)

(** {1 The clock} *)

val now : t -> int
(** The virtual clock, in ticks. *)

type timer

val after : t -> ticks:int -> (unit -> unit) -> timer
(** Arms a one-shot timer [ticks] ticks from now ([ticks] is clamped
    to at least 1). Callbacks run during {!tick}, after interrupt
    dispatch, in (deadline, creation) order. *)

val cancel : timer -> unit
(** Disarms the timer and takes it out of the wheel. *)

val timers : t -> int
(** Timers in the wheel: armed ones only, since a timer leaves the
    wheel when it fires or is cancelled. *)

val add_ticker : t -> (unit -> unit) -> unit
(** Registers a per-tick hook — how device models that complete work
    over time (e.g. a DMA engine with latency) advance while the
    driver waits for an interrupt instead of polling. *)

val dispatch : t -> int
(** Samples every source, then — while the controller INT output is
    high — acknowledges, dispatches and EOIs, returning the number of
    interrupts delivered. Bounded per call (an interrupt storm cannot
    hang the loop; see [sched.irqs.storms]). Does not advance the
    clock. *)

val tick : t -> unit
(** One loop iteration: {!dispatch}, advance the clock one tick, fire
    expired timers, run tickers. *)

(** {1 Request queues} *)

type request

val submit :
  t ->
  dev:string ->
  label:string ->
  ?timeout:int ->
  start:(unit -> unit) ->
  ?abort:(unit -> unit) ->
  ?on_done:((unit, Policy.error) result -> unit) ->
  unit ->
  request
(** Enqueues a request on [dev]'s FIFO. The head of the queue is {e in
    flight}: its [start] thunk has been run (issuing the command to
    the hardware) and a timer of [timeout] ticks (default: the
    context's poll deadline — the same budget a poll gets) has been
    armed. When the driver's interrupt handler calls {!complete}, the
    head finishes and the next request starts within the same loop
    iteration — command [k+1]'s setup overlaps the completion
    processing of command [k], which is where the queued driver's
    throughput comes from.

    On timeout the [abort] thunk runs (stop the hardware; its own
    failures are swallowed) and the request fails with
    [Timeout label]. If [start] itself raises, the error is classified
    by {!Policy.guarded}'s rules and the request fails immediately.
    [on_done] is invoked exactly once with the outcome. *)

val complete : t -> dev:string -> (unit, Policy.error) result -> unit
(** Reports the in-flight request of [dev] finished — called from the
    interrupt handler. A completion with no request in flight counts
    as [sched.irqs.unhandled] and emits {!Trace.Queue_late} tagged
    with the id of [dev]'s most recent still-unmatched timed-out
    request (a lost interrupt finally arriving) or 0 when no such
    request exists (a spurious completion); each timeout explains at
    most one late completion. *)

val request_id : request -> int
(** The id minted at {!submit} — monotonically increasing per
    scheduler, starting at 1, never reused. 0 is never a valid id (it
    marks "no request" in trace events). *)

val depth : t -> dev:string -> int
(** Queued plus in-flight requests on [dev]. *)

val outstanding : t -> int
(** Total over all devices — 0 means every submitted request reached
    its [on_done] (the queue-leak invariant the async gate checks). *)

val peek : request -> (unit, Policy.error) result option
(** The request's outcome, or [None] while pending. *)

val await : t -> request -> unit
(** Runs {!tick} until the request finishes; re-raises a failed
    outcome as [Driver_error] — the synchronous rendezvous with the
    same failure taxonomy as a poll. Termination is guaranteed by the
    request's timeout. *)

val drain : t -> unit
(** Runs {!tick} until no request is outstanding. *)
