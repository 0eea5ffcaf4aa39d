(** The driver fault-tolerance campaign.

    A campaign runs each driver workload on a fresh {!Drivers.Machine}
    whose bus is wrapped by a {!Devil_runtime.Fault} injector, once per
    (driver workload × fault class × seed) cell, and classifies every
    trial by comparing what the driver {e reported} with what actually
    {e happened} to the device:

    - {e detected}: the driver (or its recovery policy) surfaced a
      structured error, or reported the operation as failed;
    - {e recovered}: faults fired, the driver retried, and the
      workload's end-to-end data check passed;
    - {e silent}: the driver reported success but the data is wrong —
      the outcome a fault campaign exists to expose;
    - {e clean}: the probabilistic plan happened to fire nothing.

    Runs are deterministic: the injector PRNG is seeded per trial, so
    the same seeds always reproduce the same table. *)

type outcome = Clean | Recovered | Detected | Silent

val outcome_label : outcome -> string

type trial = {
  driver : string;  (** Workload name, e.g. ["ide-read"]. *)
  fault : string;  (** Fault-class name, e.g. ["transient"]. *)
  seed : int;
  injections : int;  (** Faults fired during the trial. *)
  outcome : outcome;
  detail : string;  (** Error text, mismatch description, or summary. *)
  trace_summary : string;
      (** One-line observability digest of the trial: bus traffic,
          poll/retry activity and injection counts from the trial's
          {!Devil_runtime.Metrics} registry plus the
          {!Devil_runtime.Trace} retention stats. *)
  health : Devil_runtime.Health.report;
      (** The watchdog's verdict over the trial's lifecycle/metrics
          state — a separate axis from {!field-outcome}: a trial can
          fail safe yet leave the async path stalled (timed-out
          requests), storming, or losing interrupts. *)
}

type report = {
  trials : trial list;
  coverage : Devil_runtime.Coverage.report list;
      (** Spec coverage aggregated across the whole matrix (every
          workload, fault class and seed), one report per instrumented
          device: [ide], [piix4], [uart], [ne2000], [gfx]. *)
}

val fault_classes : string list
(** ["stuck-bits"; "read-flip"; "dropped-write"; "dup-write";
    "transient"]. *)

val driver_workloads : string list
(** ["ide-read"; "ide-write"; "serial"; "net"; "gfx"; "ide-dma-async";
    "net-async"] — the last two drive the interrupt-driven queued
    drivers ({!Drivers.Ide.Async}, {!Drivers.Net.Async}) through the
    machine's {!Drivers.Machine.sched} event loop under the same fault
    matrix as their polling counterparts. *)

val replayable_workloads : string list
(** The polling subset of {!driver_workloads}, whose trials replay
    from a bus tape alone. The interrupt-driven workloads are excluded
    by construction: a tape carries bus transfers, not interrupt
    wires, so under {!Devil_runtime.Bus.replaying} a source sampling a
    device model's INT pin never asserts. *)

val default_seeds : int list
(** [[1; 2; 3]]. *)

(** {1 Workloads as values}

    The exploration layer ([Excamp]) re-runs the campaign's workloads
    under exhaustively enumerated fault schedules, so the workload
    table and its verdict vocabulary are exposed. *)

type verdict =
  | Verified  (** Driver reported success and the data checks out. *)
  | Corrupt of string  (** Driver reported success but the data is wrong. *)
  | Reported of string  (** Driver surfaced a failure. *)

val workloads :
  (string * (int * int) * (Drivers.Machine.t -> verdict)) list
(** [(name, (first, last), workload)] — the fault window is the
    device's register range; each workload checks its result against
    simulator back-door ground truth, so [Corrupt] means silent
    corruption. *)

val run_workload : Drivers.Machine.t -> (Drivers.Machine.t -> verdict) -> verdict
(** Runs a workload, converting anything it raises ([Driver_error],
    [Bus_fault], [Replay_divergence], [Device_error], [Failure]) into
    [Reported] — an escaped structured failure counts as detected. *)

val poll_deadline : int
(** The poll deadline of every machine the campaign builds, 20k ticks,
    so forced-timeout runs stay fast. The exploration campaign builds
    its machines with it too. *)

val with_campaign_policy : (unit -> 'a) -> 'a
(** [with_campaign_policy f] is [f ()]. Each campaign machine carries
    its own deadline and observer, so there is nothing to install
    around a run; the name stays for callers written when there
    was. *)

val run :
  ?seeds:int list ->
  ?profile:Devil_runtime.Profile.t ->
  ?export_dir:string ->
  unit ->
  report
(** Runs the full matrix: every workload under every fault class, once
    per seed, each trial on a fresh machine with its own trace and
    metrics and the short {!poll_deadline}. With [profile], every
    trial's machine feeds the same span profiler, so a whole campaign
    can be attributed (e.g. how much time recovery polls consume).

    With [export_dir], every failing (detected or silent) trial is
    re-recorded and its artifacts written there — see
    {!export_trial}. Raises [Invalid_argument] before any trial runs
    when [export_dir] is not an existing directory. *)

val count : report -> driver:string -> fault:string -> outcome -> int

val silent_trials : report -> trial list
(** All trials classified {!Silent}, across the whole matrix. *)

val unhealthy_trials : report -> trial list
(** All trials whose watchdog verdict is not
    {!Devil_runtime.Health.Ok}, across the whole matrix — the health
    axis of the campaign. *)

val pp_report : Format.formatter -> report -> unit
(** The Table-1-style matrix: one row per driver × fault class, with
    detected / recovered / silent / clean tallies and a verdict
    column, then a [health: n/m trials non-ok] block listing each
    non-ok trial's verdict and reasons, followed by the aggregated
    spec-coverage lines
    ([coverage <dev> registers a/b (p%) sites c/d (q%)] — the format
    the check.sh coverage gate parses). *)

(** {1 Deterministic record / replay of trials (DESIGN.md §10)}

    A trial re-run with {!Devil_runtime.Bus.recording} interposed
    between the fault injector and the observability wrapper tapes
    every transfer with the response the drivers saw — injected
    faults included. Replaying the tape with
    {!Devil_runtime.Bus.replaying} re-runs the same workload with no
    simulated hardware and no injector, and must reproduce the
    driver-visible outcome and the event stream exactly (modulo the
    injector's own [Fault_injected] bookkeeping events, which have no
    counterpart under replay; back-door device state is not compared —
    a replaying bus never touches the device models). *)

type replay_check = {
  rc_driver : string;
  rc_fault : string option;  (** [None]: recorded without an injector. *)
  rc_seed : int;
  rc_tape_length : int;
  rc_live : string;  (** Driver-visible outcome of the recorded run. *)
  rc_replayed : string;  (** Driver-visible outcome of the replay. *)
  rc_outcome_match : bool;
  rc_trace_match : bool;
  rc_mismatch : string option;
      (** First event-stream divergence, when [rc_trace_match] is
          false. *)
}

val record_replay :
  ?fault:string -> driver:string -> seed:int -> unit -> replay_check
(** Records one trial of [driver] (under fault class [fault], when
    given) and immediately replays its tape. *)

val pp_replay_check : Format.formatter -> replay_check -> unit

val export_trial :
  dir:string -> ?fault:string -> driver:string -> seed:int -> unit ->
  string list
(** Re-records the given trial and writes
    [<driver>-<fault>-seed<n>.trace.jsonl] (the event trace),
    [....tape.jsonl] (the bus tape, a {!Devil_runtime.Bus.replaying}
    input) and [....chrome.json] (the [about://tracing] view) under
    [dir], returning the paths written. *)

val export_replay_smoke :
  dir:string -> driver:string -> seed:int -> string * string
(** Records one fault-free trial, replays its tape, and writes both
    event streams as trace JSONL under [dir], returning
    [(recorded_path, replayed_path)]. With no injector involved the
    two files are byte-identical on a deterministic runtime — the
    check.sh gate diffs them with tracetool. *)
