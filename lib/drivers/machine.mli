(** A simulated PC: every modelled device attached to one I/O space at
    its conventional address, with a verified Devil instance bound to
    each. Drivers, examples, tests and benchmarks all start here. *)

module Instance = Devil_runtime.Instance

type t = {
  space : Hwsim.Io_space.t;
  bus : Devil_runtime.Bus.t;
  ctx : Devil_runtime.Ctx.t;
      (** The machine's context: its trace, metrics and profile
          handles, request cell, decider and poll deadline. Every
          instance, the bus observer and the event loop report to it,
          and to no other machine's. *)
  (* device models *)
  mouse : Hwsim.Busmouse.t;
  disk : Hwsim.Ide_disk.t;
  busmaster : Hwsim.Piix4.t;
  nic : Hwsim.Ne2000.t;
  dma : Hwsim.Dma8237.t;
  pic : Hwsim.Pic8259.t;
  sound : Hwsim.Cs4236b.t;
  gfx : Hwsim.Permedia2.t;
  uart : Hwsim.Uart16550.t;
  rtc : Hwsim.Mc146818.t;
  kbd : Hwsim.I8042.t;
  (* Devil instances over the same bus *)
  mouse_dev : Instance.t;
  ide_dev : Instance.t;
  piix4_dev : Instance.t;
  ne2000_dev : Instance.t;
  dma_dev : Instance.t;
  pic_dev : Instance.t;
  sound_dev : Instance.t;
  gfx_dev : Instance.t;
  uart_dev : Instance.t;
  rtc_dev : Instance.t;
  kbd_dev : Instance.t;
  lifecycle : Devil_runtime.Lifecycle.t option;
      (** Live request-lifecycle reconstruction, when the machine was
          built with [~lifecycle:true] and a trace. *)
  telemetry : Devil_runtime.Telemetry.t option;
      (** The deterministic-tick time-series sampler over
          {!field-metrics}, when telemetry is on — advanced by
          {!telemetry_tick}. *)
  mutable sched_ : Devil_runtime.Sched.t option;
      (** Lazily-built event loop; use {!sched}, not this field. *)
}

val mouse_base : int  (** 0x23c *)

val ide_base : int  (** 0x1f0 *)

val ide_ctrl_base : int  (** 0x3f6 *)

val piix4_base : int  (** 0xc000 *)

val piix4_prd_base : int  (** 0xc004 *)

val ne2000_base : int  (** 0x300 *)

val dma_base : int  (** 0x00 *)

val pic_base : int  (** 0x20 *)

val sound_base : int  (** 0x530 *)

val gfx_mmio_base : int  (** 0xd000_0000 *)

val gfx_fb_base : int  (** 0xd100_0000 *)

val uart_base : int  (** 0x3f8 *)

val rtc_index_base : int  (** 0x70 *)

val rtc_data_base : int  (** 0x71 *)

val kbd_data_base : int  (** 0x60 *)

val kbd_ctl_base : int  (** 0x64 *)

(** {1 Interrupt lines}

    The classic single-PIC assignments, folded onto lines 1..7 of the
    machine's master 8259A (line 0 stays free for a timer). *)

val irq_kbd : int  (** 1 *)

val irq_gfx : int  (** 2 *)

val irq_net : int  (** 3 *)

val irq_uart : int  (** 4 *)

val irq_sound : int  (** 5 *)

val irq_ide : int  (** 6 *)

val irq_mouse : int  (** 7 *)

val irq_line : string -> int option
(** The line of an instance label ([ide], [ne2000], …), if it has one. *)

val sched : t -> Devil_runtime.Sched.t
(** The machine's event loop (DESIGN.md §13), built on first call.
    Building it programs the 8259A through the bus (ICW1..ICW4,
    vectors at 0x20, all lines unmasked), wires the controller's INT
    output to the loop, and registers the interrupt sources: the IDE
    line ({!irq_ide}) wire-ORs the disk INTRQ with the PIIX4
    transfer-complete status, the network line ({!irq_net}) follows
    the NE2000's masked ISR. Acknowledge and EOI run as real bus
    traffic (8259A poll-command and specific EOI), so they are traced,
    profiled and fault-injectable like any driver I/O. A ticker
    advances the PIIX4's deferred DMA engine with virtual time. *)

val create :
  ?debug:bool ->
  ?trace:Devil_runtime.Trace.t ->
  ?metrics:Devil_runtime.Metrics.t ->
  ?profile:Devil_runtime.Profile.t ->
  ?telemetry:Devil_runtime.Telemetry.t ->
  ?interpret:bool ->
  ?wrap_bus:(Devil_runtime.Bus.t -> Devil_runtime.Bus.t) ->
  ?lifecycle:bool ->
  ?lifecycle_clock:(unit -> int) ->
  ?poll_deadline:int ->
  ?decider:(Devil_runtime.Ctx.decision -> bool) ->
  unit ->
  t
(** Builds the machine. Every handle comes from the arguments; with
    none given the machine is exactly the uninstrumented one. [debug]
    enables the §3.2 dynamic checks in every Devil instance.
    [interpret] selects the interpreting runtime engine for every
    instance instead of the default compiled access plans (see
    {!Devil_runtime.Instance.create}).

    [wrap_bus] interposes a layer between the device bus and the
    observability wrapper, seen by every driver — Devil or
    handcrafted. Pass [fun b -> Devil_runtime.Fault.bus
    (Devil_runtime.Fault.wrap ~plans b)] (or {!Devil_runtime.Fault.scheduled})
    to inject faults, [Devil_runtime.Bus.recording] to tape a run, or
    [fun _ -> Devil_runtime.Bus.replaying tape] to re-run the machine
    against a tape instead of the simulated hardware (the device models
    then see no traffic at all, so back-door state checks are
    meaningless under replay).

    The handles, [poll_deadline] and [decider] make the machine's
    context ({!field-ctx}); nothing is installed anywhere else, so
    machines built side by side — on one domain or several — never see
    each other's events. [trace]/[metrics] switch on the observability
    layer: the bus is wrapped with {!Devil_runtime.Bus.observed}
    (outside [wrap_bus], so trace events carry post-fault values),
    every instance is instrumented under a short driver label
    ([mouse], [ide], …), and the Devil drivers' polls and retries
    report through their instances' context. [profile] additionally
    times every layer as hierarchical {!Devil_runtime.Profile} spans:
    stub accesses and actions in both engines, polls and retries in
    the policy layer, and each bus transfer as a leaf.

    [poll_deadline] (default {!Devil_runtime.Ctx.default_poll_deadline})
    bounds every poll and queued request that names no deadline of its
    own; [Invalid_argument] if it is not positive. [decider] is the
    exploration hook: it sees each poll and retry decision point of
    this machine's drivers and may force the adverse outcome (see
    {!Devil_runtime.Ctx.decision}).

    [telemetry] attaches a {!Devil_runtime.Telemetry} sampler. The
    machine never ticks it on its own — workloads call
    {!telemetry_tick} at their own cadence, keeping the series
    deterministic.

    [lifecycle] (with a trace present) attaches a
    {!Devil_runtime.Lifecycle} reconstructor to the trace, so queued
    requests get per-stage latency accounting as they run;
    [lifecycle_clock] overrides its clock (tests use the scheduler's
    virtual tick counter, the latency bench the default monotonic
    nanoseconds), and its stage histograms then end in [.ticks]
    rather than [.ns]. With both trace and metrics present, ring evictions
    are additionally surfaced live as the [trace.dropped_events]
    counter. *)

val health :
  ?thresholds:(string * int) list -> t -> Devil_runtime.Health.report
(** The machine's current health verdict, evaluated over its
    lifecycle/trace/metrics handles (vacuously [Ok] when
    uninstrumented) — see {!Devil_runtime.Health.evaluate}.
    [thresholds] raises per-code tolerances, e.g. to ignore
    [trace_drops] on a machine whose retention ring is deliberately
    small. *)

val telemetry_tick : ?thresholds:(string * int) list -> t -> unit
(** Advance the machine's telemetry sampler one tick (sampling every
    metric and the {!health} verdict). A no-op — and allocation-free —
    on a machine without a telemetry handle, so workloads can call it
    unconditionally in their outer loop. *)

val reset_io_stats : t -> unit
val io_ops : t -> int
val single_ops : t -> int
val stats : t -> Hwsim.Io_space.stats
