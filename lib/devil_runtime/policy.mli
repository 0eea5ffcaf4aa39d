(** Recovery policies for drivers.

    Every driver above the Devil runtime used to carry its own ad-hoc
    spin loop and its own [failwith] strings. This module centralises
    the error vocabulary ({!error}) and the three recovery shapes a
    polled device driver needs:

    - {!poll_until} — a bounded busy-wait with an optional backoff,
      replacing hand-rolled [let rec go n = ...] loops;
    - {!with_retries} — bounded re-execution of an idempotent operation
      when it fails transiently (a {!Fault.Bus_fault} or a structured
      transient error);
    - {!guarded} — a watchdog boundary that converts raw exceptions
      ([Fault.Bus_fault], [Instance.Device_error], [Failure]) into
      structured {!Driver_error}s so callers match on one type.

    Time is simulated: deadlines and backoffs are measured in {e
    ticks}, where one tick is one condition evaluation (one status
    poll). The default bounds are uniform across drivers: the poll
    deadline is set with {!set_default_deadline}, the retry budget is
    the constant {!default_attempts}. *)

type error =
  | Timeout of string  (** A deadline expired while polling. *)
  | Device_fault of string
      (** The device reported an error or returned nonsense. *)
  | Bus_fault of string  (** A transient bus fault surfaced to the driver. *)
  | Degraded of string
      (** Recovery was attempted and exhausted; the operation is
          abandoned. *)

exception Driver_error of error
(** The single exception drivers raise for runtime failures. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val fail : error -> 'a
(** [fail e] raises [Driver_error e]. *)

val default_deadline : unit -> int
(** Ticks a poll may consume before timing out; 1_000_000 until
    {!set_default_deadline} changes it. *)

val set_default_deadline : int -> unit
(** Non-positive values are ignored. *)

val default_attempts : int
(** Total attempts {!with_retries} makes: 3. *)

val is_transient : exn -> bool
(** True for {!Fault.Bus_fault} and for [Driver_error] carrying
    [Bus_fault] or [Device_fault] — the failures a retry can plausibly
    clear. [Timeout] and [Degraded] are not transient: retrying them
    multiplies already-exhausted budgets. *)

val with_retries :
  ?attempts:int ->
  ?retry_on:(exn -> bool) ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** [with_retries ~label f] runs [f]; when it raises an exception
    accepted by [retry_on] (default {!is_transient}) it is re-run, up
    to [attempts] total executions. When the budget is exhausted the
    last failure is wrapped in [Driver_error (Degraded _)]. [f] must be
    safe to re-execute from the top (command-level idempotence). *)

val poll_until :
  ?deadline:int -> ?backoff:(int -> int) -> label:string ->
  (unit -> bool) -> unit
(** [poll_until ~label cond] evaluates [cond] until it returns [true].
    Iteration [i] costs [1 + backoff i] ticks against [deadline]
    (default {!default_deadline}; backoff defaults to constant 0), so
    [cond] is evaluated at most [deadline] times and the poll always
    terminates. Raises [Driver_error (Timeout label)] on expiry. *)

val poll_for :
  ?deadline:int -> ?backoff:(int -> int) -> label:string ->
  (unit -> 'a option) -> 'a
(** Like {!poll_until} for condition functions that produce a value. *)

val try_poll :
  ?deadline:int -> ?backoff:(int -> int) -> ?label:string ->
  (unit -> bool) -> bool
(** {!poll_until} that reports expiry as [false] instead of raising —
    for protocols where a missing answer is an answer. [label] (default
    ["try_poll"]) only names the poll in traces. *)

val try_poll_for :
  ?deadline:int -> ?backoff:(int -> int) -> ?label:string ->
  (unit -> 'a option) -> 'a option

val linear_backoff : int -> int -> int
(** [linear_backoff step] charges [step * i] extra ticks at iteration
    [i]. *)

val exponential_backoff : ?base:int -> ?cap:int -> int -> int
(** [exponential_backoff ~base ~cap] charges [min cap (base * 2^i)]
    extra ticks at iteration [i] (defaults: base 1, cap 1024). *)

val guarded : label:string -> (unit -> 'a) -> 'a
(** Watchdog boundary: runs [f], passing [Driver_error] through and
    converting [Fault.Bus_fault], [Instance.Device_error] and [Failure]
    into structured errors tagged with [label]. *)

(** {1 Observability}

    The combinators are stateless module-level functions called from
    driver code, so their observability hook is a module-level
    observer rather than a per-call argument. {!observe} installs
    trace/metrics handles; until then (and after {!unobserve}) the
    instrumented paths cost two ref reads and allocate nothing.

    Counters maintained when a metrics registry is installed:
    [poll.runs], [poll.ticks] (condition evaluations), [poll.timeouts],
    the [poll.iters] histogram, [retry.attempts] and
    [retry.exhausted]. With a trace installed each completed poll
    emits a {!Trace.Poll} event and each retry a {!Trace.Retry}
    event. *)

val observe :
  ?trace:Trace.t -> ?metrics:Metrics.t -> ?profile:Profile.t -> unit -> unit
(** Install (or replace) the module-level observer. Omitted handles are
    cleared, so [observe ()] is equivalent to {!unobserve}. With a
    profiler installed every poll runs inside a ["poll:<label>"] span
    and every {!with_retries} body inside a ["retry:<label>"] span, so
    the condition's bus traffic is attributed to the poll that issued
    it. *)

val unobserve : unit -> unit
(** Remove the observer. Owners of short-lived handles (tests,
    campaign trials) must call this before discarding them. *)

(** {1 Request attribution}

    {!Sched} parks the id of the queued request it is currently
    serving here — around the request's start thunk, its interrupt
    handler and its timeout abort — so the {!Trace.Poll} and
    {!Trace.Retry} events emitted on that request's behalf carry the
    request id and {!Lifecycle} can attribute them to the request's
    causal arc. Synchronous (non-queued) drivers always run with the
    id at 0. *)

val set_current_request : int -> unit
(** Set the request id subsequent poll/retry trace events are tagged
    with; values [<= 0] clear it. A bare store — the disabled path
    allocates nothing. *)

val current_request : unit -> int
(** The currently parked request id, 0 when none. *)

(** {1 Exploration decision points}

    Every poll completion and every retry is a branch point the
    exploration engine ({!Explore}) can force down its failure edge: a
    poll can be made to time out even though the device would have
    answered, a retry can be denied even though attempts remain. The
    installed decider sees each branch point with a per-kind 0-based
    ordinal and returns [true] to force the adverse outcome. Forced
    outcomes stay inside the classified error vocabulary — a forced
    poll is an ordinary [Timeout] (or [false] from {!try_poll}), a
    denied retry fails [Degraded] with a [retry.denied] counter — so
    exploration only schedules failure paths drivers already have.

    Like the observer, the decider is module-level state: one at a
    time, installed around a run and removed with {!clear_decider}. *)

type decision =
  | Poll_decision of { label : string; ordinal : int }
      (** About to run the poll named [label]; [true] forces an
          immediate timeout (0 condition evaluations). *)
  | Retry_decision of { label : string; attempt : int; ordinal : int }
      (** A transient failure at [attempt] would normally be retried;
          [true] denies the retry and fails [Degraded]. *)

val set_decider : (decision -> bool) -> unit
(** Install the decider and reset both ordinal counters. *)

val clear_decider : unit -> unit
(** Remove the decider; the ordinal counters keep their values so a
    finished run can still read them. *)

val reset_decision_points : unit -> unit
(** Reset the poll/retry ordinal counters to 0 without touching the
    decider. *)

val poll_points : unit -> int
(** Poll decision points encountered since the counters were last
    reset — the poll-axis horizon of the run just finished. *)

val retry_points : unit -> int
(** Retry decision points encountered since the counters were last
    reset. *)
