module Instance = Devil_runtime.Instance
module Io_space = Hwsim.Io_space

type t = {
  space : Io_space.t;
  bus : Devil_runtime.Bus.t;
  injector : Devil_runtime.Fault.t option;
  trace : Devil_runtime.Trace.t option;
  metrics : Devil_runtime.Metrics.t option;
  profile : Devil_runtime.Profile.t option;
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
  telemetry : Devil_runtime.Telemetry.t option;
  mutable sched_ : Devil_runtime.Sched.t option;
}

let mouse_base = 0x23c
let ide_base = 0x1f0
let ide_ctrl_base = 0x3f6
let piix4_base = 0xc000
let piix4_prd_base = 0xc004
let ne2000_base = 0x300
let dma_base = 0x00
let pic_base = 0x20
let sound_base = 0x530
let gfx_mmio_base = 0xd000_0000
let gfx_fb_base = 0xd100_0000
let uart_base = 0x3f8
let rtc_index_base = 0x70
let rtc_data_base = 0x71
let kbd_data_base = 0x60
let kbd_ctl_base = 0x64

(* Interrupt request lines at the (single, master) 8259A — the classic
   assignments folded onto lines 1..7 (line 0 stays free for a timer). *)
let irq_kbd = 1
let irq_gfx = 2
let irq_net = 3
let irq_uart = 4
let irq_sound = 5
let irq_ide = 6
let irq_mouse = 7

let irq_line = function
  | "kbd" -> Some irq_kbd
  | "gfx" -> Some irq_gfx
  | "ne2000" -> Some irq_net
  | "uart" -> Some irq_uart
  | "sound" -> Some irq_sound
  | "ide" -> Some irq_ide
  | "mouse" -> Some irq_mouse
  | _ -> None

let create ?(debug = false) ?faults ?fault_seed ?trace ?metrics ?profile
    ?telemetry ?interpret ?(wrap_bus = Fun.id) ?(lifecycle = false)
    ?lifecycle_clock () =
  (* Handles not given explicitly can still be enabled from the
     environment (DEVIL_TRACE / DEVIL_METRICS / DEVIL_PROFILE). *)
  let trace =
    match trace with Some _ -> trace | None -> Devil_runtime.Trace.from_env ()
  in
  let metrics =
    match metrics with
    | Some _ -> metrics
    | None -> Devil_runtime.Metrics.from_env ()
  in
  (* After metrics, so an env-enabled profiler feeds span.<key>.ns
     histograms into an env-enabled registry. *)
  let profile =
    match profile with
    | Some _ -> profile
    | None -> Devil_runtime.Profile.from_env ?metrics ()
  in
  (* Telemetry samples the registry, so it only exists when one does
     (explicit or env-enabled). *)
  let telemetry =
    match (telemetry, metrics) with
    | (Some _ as t), _ -> t
    | None, Some m -> Devil_runtime.Telemetry.from_env m
    | None, None -> None
  in
  let space = Io_space.create () in
  let mouse = Hwsim.Busmouse.create () in
  let disk = Hwsim.Ide_disk.create () in
  let busmaster = Hwsim.Piix4.create ~disk ~memory_size:(1 lsl 20) in
  let nic = Hwsim.Ne2000.create () in
  let dma = Hwsim.Dma8237.create ~memory_size:(1 lsl 16) in
  let pic = Hwsim.Pic8259.create () in
  let sound = Hwsim.Cs4236b.create () in
  let gfx = Hwsim.Permedia2.create () in
  let uart = Hwsim.Uart16550.create () in
  let rtc = Hwsim.Mc146818.create () in
  let kbd = Hwsim.I8042.create () in
  Io_space.attach space ~base:mouse_base ~size:4 (Hwsim.Busmouse.model mouse);
  Io_space.attach space ~base:ide_base ~size:8
    (Hwsim.Ide_disk.command_model disk);
  Io_space.attach space ~base:ide_ctrl_base ~size:1
    (Hwsim.Ide_disk.control_model disk);
  Io_space.attach space ~base:piix4_base ~size:4
    (Hwsim.Piix4.bm_model busmaster);
  Io_space.attach space ~base:piix4_prd_base ~size:1
    (Hwsim.Piix4.prd_model busmaster);
  Io_space.attach space ~base:ne2000_base ~size:32 (Hwsim.Ne2000.model nic);
  Io_space.attach space ~base:dma_base ~size:16 (Hwsim.Dma8237.model dma);
  Io_space.attach space ~base:pic_base ~size:2 (Hwsim.Pic8259.model pic);
  Io_space.attach space ~base:sound_base ~size:4 (Hwsim.Cs4236b.model sound);
  Io_space.attach space ~base:gfx_mmio_base ~size:16
    (Hwsim.Permedia2.mmio_model gfx);
  Io_space.attach space ~base:gfx_fb_base ~size:1
    (Hwsim.Permedia2.fb_model gfx);
  Io_space.attach space ~base:uart_base ~size:8 (Hwsim.Uart16550.model uart);
  Io_space.attach space ~base:rtc_index_base ~size:1
    (Hwsim.Mc146818.index_model rtc);
  Io_space.attach space ~base:rtc_data_base ~size:1
    (Hwsim.Mc146818.data_model rtc);
  Io_space.attach space ~base:kbd_data_base ~size:1
    (Hwsim.I8042.data_model kbd);
  Io_space.attach space ~base:kbd_ctl_base ~size:1
    (Hwsim.I8042.control_model kbd);
  (* The injector wraps the raw bus, so Devil instances and handcrafted
     drivers alike see the same injected faults. *)
  let raw_bus = Io_space.bus space in
  let injector =
    Option.map
      (fun plans ->
        Devil_runtime.Fault.wrap ?seed:fault_seed ?sink:trace ?metrics ~plans
          raw_bus)
      faults
  in
  (* The observer wraps outside the injector, so the bus events in the
     trace carry the post-fault values the drivers actually saw. *)
  let bus =
    Devil_runtime.Bus.observed ?trace ?metrics ?profile
      (wrap_bus
         (match injector with
         | None -> raw_bus
         | Some inj -> Devil_runtime.Fault.bus inj))
  in
  if Option.is_some trace || Option.is_some metrics || Option.is_some profile
  then Devil_runtime.Policy.observe ?trace ?metrics ?profile ();
  (* Ring evictions become a live counter instead of a value you have
     to remember to poll off the ring. *)
  (match (trace, metrics) with
  | Some tr, Some m ->
      let dropped =
        Devil_runtime.Metrics.Counter.make m "trace.dropped_events"
      in
      Devil_runtime.Trace.set_drop_hook tr (fun () ->
          Devil_runtime.Metrics.Counter.incr dropped)
  | _ -> ());
  let lifecycle =
    match trace with
    | Some tr when lifecycle ->
        Some
          (Devil_runtime.Lifecycle.attach ?clock:lifecycle_clock ?metrics tr)
    | _ -> None
  in
  let mk label device bases =
    Instance.create ~debug ~label ?trace ?metrics ?profile ?interpret device
      ~bus ~bases
  in
  {
    space;
    bus;
    injector;
    trace;
    metrics;
    profile;
    mouse;
    disk;
    busmaster;
    nic;
    dma;
    pic;
    sound;
    gfx;
    uart;
    rtc;
    kbd;
    mouse_dev =
      mk "mouse" (Devil_specs.Specs.busmouse ()) [ ("base", mouse_base) ];
    ide_dev =
      mk "ide" (Devil_specs.Specs.ide ())
        [ ("data", ide_base); ("cmd", ide_base); ("ctrl", ide_ctrl_base) ];
    piix4_dev =
      mk "piix4" (Devil_specs.Specs.piix4_ide ())
        [ ("bm", piix4_base); ("prd", piix4_prd_base) ];
    ne2000_dev =
      mk "ne2000" (Devil_specs.Specs.ne2000 ()) [ ("base", ne2000_base) ];
    dma_dev = mk "dma" (Devil_specs.Specs.dma8237 ()) [ ("base", dma_base) ];
    pic_dev =
      mk "pic" (Devil_specs.Specs.pic8259 ~master:true ())
        [ ("base", pic_base) ];
    sound_dev =
      mk "sound" (Devil_specs.Specs.cs4236b ()) [ ("base", sound_base) ];
    gfx_dev =
      mk "gfx" (Devil_specs.Specs.permedia2 ())
        [ ("mmio", gfx_mmio_base); ("fb", gfx_fb_base) ];
    uart_dev =
      mk "uart" (Devil_specs.Specs.uart16550 ()) [ ("base", uart_base) ];
    rtc_dev =
      mk "rtc" (Devil_specs.Specs.mc146818 ())
        [ ("idx", rtc_index_base); ("data", rtc_data_base) ];
    kbd_dev =
      mk "kbd" (Devil_specs.Specs.i8042 ())
        [ ("data", kbd_data_base); ("ctl", kbd_ctl_base) ];
    lifecycle;
    telemetry;
    sched_ = None;
  }

(* The event loop over this machine, built on first use.

   The controller closures split along the hardware's own seam: raising
   a line is a wire from the device's INT pin (no bus traffic), while
   acknowledge and EOI are programmed I/O against the 8259A — the OCW3
   poll-command handshake and a specific-EOI OCW2 — so interrupt
   delivery goes through the same observed, fault-injectable bus as
   every other access the driver makes. *)
let sched t =
  match t.sched_ with
  | Some s -> s
  | None ->
      let module Sched = Devil_runtime.Sched in
      let ctl_raise ~line = Hwsim.Pic8259.raise_irq t.pic ~line in
      let ctl_ack () =
        (* OCW3 with the poll bit: the next read acts as INTA. *)
        t.bus.write ~width:1 ~addr:pic_base ~value:0x0c;
        let v = t.bus.read ~width:1 ~addr:pic_base in
        if v land 0x80 <> 0 then Some (v land 0x7) else None
      in
      let ctl_eoi ~line =
        t.bus.write ~width:1 ~addr:pic_base ~value:(0x60 lor (line land 0x7))
      in
      let s =
        Sched.create ?trace:t.trace ?metrics:t.metrics ?profile:t.profile
          { Sched.ctl_raise; ctl_ack; ctl_eoi }
      in
      (* Program the controller the way a kernel would: ICW1..ICW4
         (edge-triggered, single, 8086 mode, vectors at 0x20), then
         unmask every line. *)
      if not (Hwsim.Pic8259.initialized t.pic) then begin
        t.bus.write ~width:1 ~addr:pic_base ~value:0x11;
        t.bus.write ~width:1 ~addr:(pic_base + 1) ~value:0x20;
        t.bus.write ~width:1 ~addr:(pic_base + 1) ~value:0x04;
        t.bus.write ~width:1 ~addr:(pic_base + 1) ~value:0x01;
        t.bus.write ~width:1 ~addr:(pic_base + 1) ~value:0x00
      end;
      Hwsim.Pic8259.set_int_callback t.pic (fun level -> Sched.note_int s level);
      (* The IDE line wire-ORs the disk's own INTRQ with the busmaster's
         transfer-complete status, as on a PIIX4 board. *)
      Sched.add_source s ~line:irq_ide ~dev:"ide" (fun () ->
          Hwsim.Ide_disk.irq_pending t.disk || Hwsim.Piix4.irq_seen t.busmaster);
      Sched.add_source s ~line:irq_net ~dev:"ne2000" (fun () ->
          Hwsim.Ne2000.irq_asserted t.nic);
      (* The busmaster's deferred DMA engine advances with virtual time. *)
      Sched.add_ticker s (fun () -> Hwsim.Piix4.tick t.busmaster);
      t.sched_ <- Some s;
      s

let health ?thresholds t =
  Devil_runtime.Health.evaluate ?thresholds ?lifecycle:t.lifecycle
    ?trace:t.trace ?metrics:t.metrics ()

(* The one-call sampling point workloads drop into their outer loop:
   a no-op (and allocation-free) unless the machine carries a
   telemetry handle. *)
let telemetry_tick ?thresholds t =
  match t.telemetry with
  | None -> ()
  | Some tel -> Devil_runtime.Telemetry.tick ~health:(health ?thresholds t) tel

let reset_io_stats t = Io_space.reset_stats t.space
let io_ops t = Io_space.io_ops t.space
let single_ops t = Io_space.single_ops t.space
let stats t = Io_space.stats t.space
