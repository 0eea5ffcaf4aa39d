(** The exploration campaign: {!Devil_runtime.Explore} instantiated
    over real driver workloads (DESIGN.md §12).

    This layer turns the abstract engine into a verification harness:

    - the {b choice alphabet} crosses fault kinds with injection
      {e sites} (the busiest (direction, address) pairs inside the
      device's register window, discovered from one unfaulted run)
      and, optionally, the two policy axes (forced poll timeouts,
      denied retries);
    - a {b slot} means: for an injection, the 0-based ordinal of the
      covered access at that site; for a policy axis, the 0-based
      poll/retry branch-point ordinal of the run;
    - each schedule runs the workload on a fresh {!Drivers.Machine}
      whose bus is wrapped by a schedule-driven {!Devil_runtime.Fault}
      injector, judged by the {!Devil_runtime.Monitor} oracle plus the
      recovery invariants: a run must end {e Verified}, {e detected}
      (a classified failure) or — under value-corruption kinds only —
      campaign-visible corruption; silent corruption under an adverse
      decision (transient fault, forced policy outcome), corruption on
      the unfaulted schedule, a monitor violation, or an unclassified
      escaped [Bus_fault] is a violation;
    - every violation is shrunk ({!Devil_runtime.Explore.shrink}) and
      re-recorded as a {!Devil_runtime.Bus} tape, replayable without
      hardware or injector ({!replay_counterexample}). *)

module Explore = Devil_runtime.Explore

type choice =
  | Inject of {
      addr : int;
      op : Devil_runtime.Fault.op;
      kind : Devil_runtime.Fault.kind;
      tag : string;
    }
  | Poll_timeout
  | Retry_deny

val pp_choice : Format.formatter -> choice -> unit
val choice_to_string : choice -> string

type workload = {
  w_name : string;
  w_range : int * int;  (** Injection window (device registers). *)
  w_devices : (string * Devil_ir.Ir.device) list;
      (** Instance labels and compiled specs for the monitor oracle. *)
  w_run : Drivers.Machine.t -> Faultcamp.Campaign.verdict;
}

val builtin : string -> workload
(** A campaign workload by name ([ide-read], [ide-write], [serial],
    [net], [gfx]) with its monitor devices. *)

val seeded_bug : workload
(** The seeded regression of ISSUE 6's acceptance criteria: a serial
    transmit loop that swallows classified faults instead of retrying
    or surfacing them, so a transient fault on the THR write silently
    loses a byte. Exploration must find it, shrink it to one decision,
    and reproduce it from its tape. *)

val seeded_bug_message : string
(** The bytes {!seeded_bug} transmits. *)

type bound = {
  b_depth : int;  (** Slots 0 .. depth-1 per choice. *)
  b_budget : int;  (** Maximum simultaneous decisions per schedule. *)
  b_sites : int;  (** Busiest sites kept per workload. *)
  b_kinds : Devil_runtime.Fault.kind list;
      (** Fault kinds crossed with the sites (probability fields are
          ignored in scheduled mode). *)
  b_policy_axes : bool;  (** Include [Poll_timeout] / [Retry_deny]. *)
}

val default_bound : bound
(** depth 6, budget 2, 3 sites, transient faults, policy axes on. *)

val pp_bound : Format.formatter -> bound -> unit

type exec = {
  e_ok : bool;
  e_detail : string;
  e_fired : int;
  e_adverse_fired : int;
  e_state : int;
  e_horizon : choice -> int;
  e_monitor : Devil_runtime.Monitor.violation list;
  e_events : Devil_runtime.Trace.event list;
  e_tape : Devil_runtime.Bus.tape option;
  e_health : Devil_runtime.Health.report;
      (** The watchdog verdict over the run's lifecycle/metrics state
          (see {!Devil_runtime.Health.evaluate}) — surfaced so the
          campaign reports health regressions, not just oracle
          violations. *)
}
(** Everything one schedule run produces; the engine outcome is a
    projection ({!outcome_of_exec}). *)

val run_schedule :
  ?record:bool ->
  ?monitor:Devil_runtime.Monitor.t ->
  workload ->
  choice list ->
  choice Explore.schedule ->
  exec
(** One workload execution under one schedule. [choices] supplies the
    horizon probes (every site in the alphabet is counted even when
    not scheduled). With [record] the bus is taped between the
    injector and the observability wrapper. The caller's [monitor] is
    cleared and attached to the run's trace. The run's
    machine carries the schedule's decider and the campaign's poll
    deadline ({!Faultcamp.Campaign.poll_deadline}); nothing outlives
    it. *)

val outcome_of_exec : exec -> choice Explore.outcome

type counterexample = {
  cx_workload : string;
  cx_detail : string;
  cx_found : choice Explore.schedule;  (** As discovered. *)
  cx_schedule : choice Explore.schedule;  (** Minimized. *)
  cx_shrink_runs : int;
  cx_tape : Devil_runtime.Bus.tape;  (** Tape of the minimized run. *)
  cx_events : Devil_runtime.Trace.event list;
  cx_health : Devil_runtime.Health.report;
      (** Watchdog verdict of the minimized run — how the violation
          left the async path (stalled, degraded, …). *)
}

type result = {
  r_workload : string;
  r_bound : bound;
  r_sites : (Devil_runtime.Fault.op * int * int) list;
      (** (direction, address, unfaulted traffic count). *)
  r_choices : choice list;
  r_base_verdict : Faultcamp.Campaign.verdict;
  r_report : choice Explore.report;
  r_counterexamples : counterexample list;
}

val explore_workload :
  ?bound:bound ->
  ?max_violations:int ->
  ?on_run:(choice Explore.schedule -> choice Explore.outcome -> unit) ->
  workload ->
  result
(** The campaign: discover sites, build the alphabet, exhaustively
    explore within [bound] (under the campaign's shortened poll
    deadline), shrink and re-record every violation (up to
    [max_violations], default 4). Deterministic end to end. *)

type replay = {
  rr_verdict : string;  (** Driver-visible outcome under replay. *)
  rr_tape_identical : bool;
      (** The re-recorded replay tape equals the counterexample tape
          byte for byte — the reproduction criterion. *)
  rr_divergence : string option;
}

val replay_counterexample : workload -> counterexample -> replay
(** Re-runs the workload against {!Devil_runtime.Bus.replaying} on the
    counterexample's tape — no simulated hardware, no injector; only
    the schedule's policy decisions are re-armed — re-recording the
    replayed bus to check byte-identical reproduction. *)

val record_schedule :
  ?bound:bound -> workload -> choice Explore.schedule -> exec
(** Run one schedule live with recording on — how tape fixtures are
    (re)generated. *)

val pp_result : Format.formatter -> result -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
