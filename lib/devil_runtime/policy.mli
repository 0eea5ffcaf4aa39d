(** Recovery policies for drivers.

    Every driver above the Devil runtime used to carry its own ad-hoc
    spin loop and its own [failwith] strings. This module centralises
    the error vocabulary ({!error}) and the three recovery shapes a
    polled device driver needs:

    - {!poll_until} — a bounded busy-wait, replacing hand-rolled
      [let rec go n = ...] loops;
    - {!with_retries} — bounded re-execution of an idempotent operation
      when it fails transiently (a {!Fault.Bus_fault} or a structured
      transient error);
    - {!guarded} — a watchdog boundary that converts raw exceptions
      ([Fault.Bus_fault], [Instance.Device_error], [Failure]) into
      structured {!Driver_error}s so callers match on one type.

    Time is simulated: deadlines are measured in {e ticks}, where one
    tick is one condition evaluation (one status poll). The retry
    budget is the constant {!default_attempts}; a poll's deadline is
    its [deadline] argument, else its context's
    {!Ctx.field-poll_deadline}, else {!Ctx.default_poll_deadline}.

    Every combinator but {!guarded} takes an optional {!Ctx.t}: the
    machine context a Devil driver takes from its instance
    ({!Instance.ctx}). The context receives what the call reports —
    the [poll.*] and [retry.*] counters ([poll.runs], [poll.ticks]
    (condition evaluations), [poll.timeouts], [poll.forced], the
    [poll.iters] histogram, [retry.attempts], [retry.denied],
    [retry.exhausted]), a {!Trace.Poll} or {!Trace.Retry} event tagged
    with the context's current request id, and a ["poll:<label>"] or
    ["retry:<label>"] profile span around the condition or body — and
    its decider may force a poll to time out or deny a retry (see
    {!Ctx.decision}). A call with no context observes nothing,
    consults no decider and touches no state: the module holds none. *)

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

val default_attempts : int
(** Total attempts {!with_retries} makes: 3. *)

val is_transient : exn -> bool
(** True for {!Fault.Bus_fault} and for [Driver_error] carrying
    [Bus_fault] or [Device_fault] — the failures a retry can plausibly
    clear. [Timeout] and [Degraded] are not transient: retrying them
    multiplies already-exhausted budgets. *)

val with_retries :
  ?ctx:Ctx.t -> ?attempts:int -> label:string -> (unit -> 'a) -> 'a
(** [with_retries ~label f] runs [f]; when it raises an exception
    {!is_transient} accepts it is re-run, up to [attempts] total
    executions. When the budget is exhausted the last failure is
    wrapped in [Driver_error (Degraded _)], as is a retry the context's
    decider denies. [f] must be safe to re-execute
    from the top (command-level idempotence). *)

val poll_until :
  ?ctx:Ctx.t -> ?deadline:int -> label:string -> (unit -> bool) -> unit
(** [poll_until ~label cond] evaluates [cond] until it returns [true].
    Each evaluation costs one tick against [deadline] (default: the
    context's), so [cond] is evaluated at most [deadline] times and the
    poll always terminates. Raises [Driver_error (Timeout label)] on
    expiry. *)

val try_poll :
  ?ctx:Ctx.t -> ?deadline:int -> ?label:string -> (unit -> bool) -> bool
(** {!poll_until} that reports expiry as [false] instead of raising —
    for protocols where a missing answer is an answer. [label] (default
    ["try_poll"]) only names the poll in traces. *)

val try_poll_for :
  ?ctx:Ctx.t -> ?deadline:int -> ?label:string -> (unit -> 'a option) ->
  'a option
(** {!try_poll} for condition functions that produce a value. *)

val guarded : label:string -> (unit -> 'a) -> 'a
(** Watchdog boundary: runs [f], passing [Driver_error] through and
    converting [Fault.Bus_fault], [Instance.Device_error] and [Failure]
    into structured errors tagged with [label]. *)

val unobserve : unit -> unit
(** Does nothing. The module keeps no observer to remove; the name
    stays for callers written when it did. *)
