module Machine = Drivers.Machine
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Bus = Devil_runtime.Bus
module Coverage = Devil_runtime.Coverage
module Trace_export = Devil_runtime.Trace_export
module Health = Devil_runtime.Health

type outcome = Clean | Recovered | Detected | Silent

let outcome_label = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Detected -> "detected"
  | Silent -> "silent"

type trial = {
  driver : string;
  fault : string;
  seed : int;
  injections : int;
  outcome : outcome;
  detail : string;
  trace_summary : string;
  health : Health.report;
}

type report = {
  trials : trial list;
  coverage : Coverage.report list;
      (* Spec coverage aggregated across the whole matrix, one report
         per instrumented device. *)
}

(* {1 Fault classes}

   Each class is instantiated over the target driver's register window
   so a trial only perturbs the device under test. Probabilities are
   per-operation; the budgeted transient plan is a deterministic burst
   (the first two covered accesses abort), sized below the retry
   allowance so a recovering driver demonstrably recovers. *)

let fault_classes =
  [ "stuck-bits"; "read-flip"; "dropped-write"; "dup-write"; "transient" ]

let plans_for ~fault ~first ~last =
  match fault with
  | "stuck-bits" ->
      [
        Fault.plan ~label:fault ~ops:[ Fault.Read ] ~first ~last
          (Fault.Stuck_bits { and_mask = -1; or_mask = 0x01 });
      ]
  | "read-flip" ->
      [
        Fault.plan ~label:fault ~ops:[ Fault.Read ] ~first ~last
          (Fault.Flip_bits { mask = 0x04; probability = 0.25 });
      ]
  | "dropped-write" ->
      [
        Fault.plan ~label:fault ~ops:[ Fault.Write ] ~first ~last
          (Fault.Drop_write { probability = 0.2 });
      ]
  | "dup-write" ->
      [
        Fault.plan ~label:fault ~ops:[ Fault.Write ] ~first ~last
          (Fault.Duplicate_write { probability = 0.2 });
      ]
  | "transient" ->
      [
        Fault.plan ~label:fault ~budget:2 ~first ~last
          (Fault.Transient { probability = 1.0 });
      ]
  | f -> invalid_arg ("Campaign.plans_for: unknown fault class " ^ f)

(* {1 Driver workloads}

   Each workload drives a device end to end and then checks the result
   against ground truth obtained through the simulator's back door
   (which bypasses the faulty bus), so silent corruption is
   observable. *)

type verdict =
  | Verified  (** Driver reported success and the data checks out. *)
  | Corrupt of string  (** Driver reported success but the data is wrong. *)
  | Reported of string  (** Driver surfaced a failure. *)

let sector_bytes = Hwsim.Ide_disk.sector_bytes

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 7 + 13) land 0xff))

let ide_read (m : Machine.t) =
  let count = 4 in
  let expected = pattern (count * sector_bytes) in
  for s = 0 to count - 1 do
    Hwsim.Ide_disk.write_sector m.disk ~lba:(100 + s)
      (Bytes.sub expected (s * sector_bytes) sector_bytes)
  done;
  let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let got =
    Drivers.Ide.Devil_driver.read_sectors d ~lba:100 ~count ~mult:1
      ~path:`Loop ~width:`W16
  in
  (* Post-transfer probe: the error-locate readback real drivers run
     when a command stops early (exercised here unconditionally so the
     campaign covers the task-file read path). The task file must
     still address the command we issued — the device never rewrites
     it during PIO — so a mismatch means the probe the driver would
     lean on after a real failure is itself untrustworthy, and the
     driver reports that rather than ignoring the readback. *)
  let tf_count, tf_lba = Drivers.Ide.Devil_driver.read_task_file d in
  if tf_count <> count || tf_lba <> 100 then
    Policy.fail
      (Policy.Device_fault
         (Printf.sprintf
            "ide: task file reads back (count=%d, lba=%d), not the issued \
             (count=%d, lba=100)"
            tf_count tf_lba count));
  if Bytes.equal got expected then Verified
  else Corrupt "read data differs from disk contents"

let ide_write (m : Machine.t) =
  let count = 4 in
  let data = pattern (count * sector_bytes) in
  let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  Drivers.Ide.Devil_driver.set_features d 0;
  Drivers.Ide.Devil_driver.write_sectors d ~lba:200 ~count ~mult:1 ~path:`Loop
    ~width:`W16 data;
  let ok = ref true in
  for s = 0 to count - 1 do
    let sect = Hwsim.Ide_disk.read_sector m.disk ~lba:(200 + s) in
    if not (Bytes.equal sect (Bytes.sub data (s * sector_bytes) sector_bytes))
    then ok := false
  done;
  if !ok then Verified else Corrupt "disk contents differ from data written"

let serial_self_test (m : Machine.t) =
  let u = Drivers.Serial.Devil_driver.create m.uart_dev in
  Drivers.Serial.Devil_driver.init u ~baud:115200;
  if Drivers.Serial.Devil_driver.self_test u then Verified
  else Reported "loopback self-test reported failure"

let net_loopback (m : Machine.t) =
  let n = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init_loopback n ~mac:"\x02\x00\x00\x00\x00\x01";
  let frame = "devil fault campaign loopback frame" in
  Drivers.Net.Devil_driver.send n frame;
  match Drivers.Net.Devil_driver.receive n with
  | Some got when got = frame -> Verified
  | Some _ -> Corrupt "received frame differs from the one sent"
  | None -> Reported "no frame in the receive ring after send"

(* The Permedia2 render workload exercises every path of the gfx
   driver: the software framebuffer aperture (block stubs, both
   directions), an engine fill through the independent-variable path
   (8 bpp) and an engine copy through the grouped-structure path
   (24 bpp). Back-door checks are accumulated — never branched on —
   so the driver issues the same bus traffic whatever the device
   state, which record/replay relies on. *)
let gfx_render (m : Machine.t) =
  let module G = Drivers.Gfx.Devil_driver in
  let module P = Hwsim.Permedia2 in
  let g = G.create m.gfx_dev in
  let bad = ref [] in
  let check what ok = if not ok then bad := what :: !bad in
  (* Software path: the aperture cursor starts at pixel (0, 0). *)
  let ramp = Array.init 8 (fun i -> 0x30 + i) in
  Devil_runtime.Instance.write_block m.gfx_dev "fb_data" ramp;
  check "software fill through the fb aperture"
    (Array.for_all Fun.id
       (Array.mapi (fun i v -> P.pixel m.gfx ~x:i ~y:0 = v) ramp));
  for i = 0 to 3 do
    P.set_pixel m.gfx ~x:(8 + i) ~y:0 (0x60 + i)
  done;
  let back = Devil_runtime.Instance.read_block m.gfx_dev "fb_data" ~count:4 in
  check "software read-back through the fb aperture"
    (back = Array.init 4 (fun i -> 0x60 + i));
  (* Engine fill, 8 bpp: one write per coordinate variable. *)
  let rx = 2 and ry = 4 and rw = 6 and rh = 3 in
  G.set_depth g 8;
  G.fill_rect g { Drivers.Gfx.x = rx; y = ry; w = rw; h = rh } ~color:0x5a;
  G.sync g;
  let rect_filled x y color =
    let ok = ref true in
    for py = y to y + rh - 1 do
      for px = x to x + rw - 1 do
        if P.pixel m.gfx ~x:px ~y:py <> color then ok := false
      done
    done;
    !ok
  in
  check "engine fill" (rect_filled rx ry 0x5a);
  check "engine fill clipped to the rectangle"
    (P.pixel m.gfx ~x:(rx + rw) ~y:ry = 0);
  (* Engine copy, 24 bpp: grouped structure stubs, destination
     displaced from the filled rectangle by (dx, dy). *)
  G.set_depth g 24;
  G.copy_rect g
    { Drivers.Gfx.x = rx + 10; y = ry; w = rw; h = rh }
    ~dx:10 ~dy:0;
  G.sync g;
  check "engine copy" (rect_filled (rx + 10) ry 0x5a);
  check "no FIFO overflow" (P.overflows m.gfx = 0);
  match List.rev !bad with
  | [] -> Verified
  | faults -> Corrupt (String.concat "; " faults)

(* {2 Asynchronous (interrupt-driven) workloads}

   The queued drivers under the same adversarial bus as their polling
   counterparts. Interrupt delivery itself — the 8259A poll-command
   acknowledge and the EOI — runs as bus traffic outside the faulted
   range, mirroring real boards where the interrupt controller does
   not share the device's bus segment. *)

let ide_dma_async (m : Machine.t) =
  let count = 2 and lba0 = 300 and commands = 2 in
  let total = commands * count in
  let expected = pattern (total * sector_bytes) in
  for s = 0 to total - 1 do
    Hwsim.Ide_disk.write_sector m.disk ~lba:(lba0 + s)
      (Bytes.sub expected (s * sector_bytes) sector_bytes)
  done;
  Hwsim.Piix4.set_latency m.busmaster 4;
  let sched = Machine.sched m in
  let d =
    Drivers.Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev
      ~piix4:m.piix4_dev
  in
  let got = Bytes.make (total * sector_bytes) '\000' in
  let rqs =
    List.init commands (fun i ->
        Drivers.Ide.Async.read_dma d ~lba:(lba0 + (i * count)) ~count
          ~on_data:(fun b ->
            Bytes.blit b 0 got (i * count * sector_bytes) (Bytes.length b))
          ())
  in
  List.iter (fun rq -> Drivers.Ide.Async.await d rq) rqs;
  (* The same error-locate probe as the synchronous workload: the task
     file must still address the last command the queue issued. *)
  let last_lba = lba0 + ((commands - 1) * count) in
  let ide_drv = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let tf_count, tf_lba = Drivers.Ide.Devil_driver.read_task_file ide_drv in
  if tf_count <> count || tf_lba <> last_lba then
    Policy.fail
      (Policy.Device_fault
         (Printf.sprintf
            "ide: task file reads back (count=%d, lba=%d), not the issued \
             (count=%d, lba=%d)"
            tf_count tf_lba count last_lba));
  if Bytes.equal got expected then Verified
  else Corrupt "DMA data differs from disk contents"

let net_async (m : Machine.t) =
  let sched = Machine.sched m in
  let inst = m.ne2000_dev in
  let sync = Drivers.Net.Devil_driver.create inst in
  let a = Drivers.Net.Async.create ~sched ~line:Machine.irq_net inst in
  Drivers.Net.Devil_driver.init sync ~mac:"\x02\x00\x00\x00\x00\x02";
  let got = ref [] in
  Drivers.Net.Async.on_frame a (fun f -> got := f :: !got);
  let frames =
    List.init 3 (fun i ->
        String.init 40 (fun j -> Char.chr (((i * 40) + (j * 3) + 5) land 0xff)))
  in
  List.iter
    (fun f ->
      if not (Hwsim.Ne2000.inject_frame m.nic f) then
        failwith "net async: receive ring rejected an injected frame")
    frames;
  let budget = ref 64 in
  while List.length !got < List.length frames && !budget > 0 do
    Devil_runtime.Sched.tick sched;
    decr budget
  done;
  if List.length !got < List.length frames then
    Policy.fail
      (Policy.Device_fault
         (Printf.sprintf "net: %d of %d frames drained before the deadline"
            (List.length !got) (List.length frames)));
  (* One transmission through the queue, completed by the PTX irq. *)
  let tx = "devil fault campaign async tx frame" in
  Drivers.Net.Async.await a (Drivers.Net.Async.send a tx);
  if List.rev !got <> frames then
    Corrupt "drained frames differ from the ones injected"
  else
    match Hwsim.Ne2000.take_transmitted m.nic with
    | [ sent ] when sent = tx -> Verified
    | [ _ ] -> Corrupt "transmitted frame differs from the one sent"
    | l ->
        Reported
          (Printf.sprintf "expected 1 transmitted frame, found %d"
             (List.length l))

let driver_workloads =
  [ "ide-read"; "ide-write"; "serial"; "net"; "gfx"; "ide-dma-async"; "net-async" ]

(* A bus tape carries transfers, not interrupt wires: under
   [Bus.replaying] the device models see no traffic, so a source
   sampling a model's INT pin never asserts and an interrupt-driven
   workload can only time out. Replay guarantees therefore cover the
   polling workloads, where everything the driver observed IS on the
   tape. *)
let replayable_workloads = [ "ide-read"; "ide-write"; "serial"; "net"; "gfx" ]

let workloads =
  [
    ("ide-read", (Machine.ide_base, Machine.ide_base + 7), ide_read);
    ("ide-write", (Machine.ide_base, Machine.ide_base + 7), ide_write);
    ("serial", (Machine.uart_base, Machine.uart_base + 7), serial_self_test);
    ("net", (Machine.ne2000_base, Machine.ne2000_base + 31), net_loopback);
    ("gfx", (Machine.gfx_mmio_base, Machine.gfx_mmio_base + 15), gfx_render);
    ( "ide-dma-async",
      (Machine.ide_base, Machine.ide_base + 7),
      ide_dma_async );
    ( "net-async",
      (Machine.ne2000_base, Machine.ne2000_base + 31),
      net_async );
  ]

(* The devices whose spec coverage the campaign aggregates: one
   (instance label, compiled spec) pair per device the workloads
   drive. *)
let coverage_devices () =
  [
    ("ide", Devil_specs.Specs.ide ());
    ("piix4", Devil_specs.Specs.piix4_ide ());
    ("uart", Devil_specs.Specs.uart16550 ());
    ("ne2000", Devil_specs.Specs.ne2000 ());
    ("gfx", Devil_specs.Specs.permedia2 ());
  ]

(* {1 Trial runner} *)

(* A trial's observability digest: what the bus, the policies and the
   injector did, condensed to one line for the report. The trial trace
   is deliberately small — the interesting window is the tail where
   the fault and the recovery happened. *)
let summarize ~(metrics : Metrics.t) ~(trace : Trace.t) =
  let c = Metrics.count metrics in
  Printf.sprintf
    "bus %dR/%dW (+%d blk), polls %d (%d ticks, %d timeouts), retries %d, \
     faults %d; %s"
    (c "bus.reads") (c "bus.writes")
    (c "bus.block_reads" + c "bus.block_writes")
    (c "poll.runs") (c "poll.ticks") (c "poll.timeouts") (c "retry.attempts")
    (c "fault.injections") (Trace.summary trace)

(* Anything the driver raises counts as detected: the failure is
   visible to the caller, which is the property under test. *)
let run_workload m workload =
  try workload m with
  | Policy.Driver_error e -> Reported (Policy.error_to_string e)
  | Fault.Bus_fault msg -> Reported ("unhandled bus fault: " ^ msg)
  | Bus.Replay_divergence msg -> Reported ("replay divergence: " ^ msg)
  | Devil_runtime.Instance.Device_error msg -> Reported ("device error: " ^ msg)
  | Failure msg -> Reported msg

(* Timeout trials would otherwise spin the full default deadline; 20k
   status polls keep the whole matrix under a second. *)
let poll_deadline = 20_000

let run_trial ?(covs = []) ?profile ~driver ~range:(first, last) ~workload
    ~fault ~seed () =
  let plans = plans_for ~fault ~first ~last in
  let metrics = Metrics.create () in
  let trace = Trace.create ~capacity:128 () in
  (* Coverage observers hook the live stream (O(1) per event), so the
     small retention ring above does not bound what they see. *)
  List.iter (fun cov -> Coverage.attach cov trace) covs;
  let wrap_bus b = Fault.bus (Fault.wrap ~seed ~sink:trace ~metrics ~plans b) in
  let m =
    Machine.create ~metrics ~trace ?profile ~wrap_bus ~lifecycle:true
      ~poll_deadline ()
  in
  let verdict = run_workload m workload in
  let injections = Metrics.count metrics "fault.injections" in
  (* The watchdog's view of the same trial: did the run merely fail
     loudly, or did the async path stall, storm or lose interrupts?
     Ring evictions are expected here — the 128-entry retention ring
     above is deliberately small (coverage observes the live stream) —
     so [trace_drops] alone must not mark a trial unhealthy. *)
  let health = Machine.health ~thresholds:[ ("trace_drops", max_int) ] m in
  let outcome, detail =
    match verdict with
    | Verified when injections = 0 -> (Clean, "no faults fired")
    | Verified ->
        ( Recovered,
          Printf.sprintf "verified end to end despite %d injections"
            injections )
    | Corrupt d -> ((if injections = 0 then Clean else Silent), d)
    | Reported d -> (Detected, d)
  in
  let trace_summary = summarize ~metrics ~trace in
  { driver; fault; seed; injections; outcome; detail; trace_summary; health }

let default_seeds = [ 1; 2; 3 ]

let with_campaign_policy f = f ()

(* {1 Record / replay}

   A trial re-run with [Bus.recording] interposed (inside the
   observability wrapper, outside the fault injector) yields a tape of
   every transfer the drivers issued with the response — including
   injected faults — they observed. [record_replay] then re-runs the
   same workload against [Bus.replaying tape]: no simulated hardware,
   no injector, just the taped responses. The driver-visible outcome
   and the event stream must come out identical.

   Two normalizations when comparing the streams: [Fault_injected]
   events are the injector's own bookkeeping (the replay has no
   injector; the faults' effects are on the tape), so they are
   dropped; and sequence numbers are ignored since dropping shifts
   them. Back-door data checks (disk contents, framebuffer pixels) are
   NOT compared — a replaying bus never touches the device models, so
   only what the driver itself observed is meaningful. *)

type replay_check = {
  rc_driver : string;
  rc_fault : string option;
  rc_seed : int;
  rc_tape_length : int;
  rc_live : string;
  rc_replayed : string;
  rc_outcome_match : bool;
  rc_trace_match : bool;
  rc_mismatch : string option;
}

let driver_visible = function
  | Verified | Corrupt _ -> "completed"
  | Reported d -> "failed: " ^ d

let comparable_kinds trace =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.kind with Trace.Fault_injected _ -> None | k -> Some k)
    (Trace.events trace)

let find_workload driver =
  match List.find_opt (fun (d, _, _) -> d = driver) workloads with
  | Some w -> w
  | None -> invalid_arg ("Campaign: unknown driver workload " ^ driver)

let first_kind_mismatch ka kb =
  let rec go i = function
    | [], [] -> None
    | k :: _, [] ->
        Some
          (Format.asprintf "event %d only in live run: %a" i Trace.pp_kind k)
    | [], k :: _ ->
        Some (Format.asprintf "event %d only in replay: %a" i Trace.pp_kind k)
    | a :: ra, b :: rb ->
        if a = b then go (i + 1) (ra, rb)
        else
          Some
            (Format.asprintf "event %d differs: live %a, replay %a" i
               Trace.pp_kind a Trace.pp_kind b)
  in
  go 0 (ka, kb)

let record_trial ?fault ~driver ~seed () =
  let _, (first, last), workload = find_workload driver in
  let trace = Trace.create ~capacity:262_144 () in
  let metrics = Metrics.create () in
  let tape = ref None in
  let wrap_bus b =
    let b =
      match fault with
      | None -> b
      | Some fault ->
          let plans = plans_for ~fault ~first ~last in
          Fault.bus (Fault.wrap ~seed ~sink:trace ~metrics ~plans b)
    in
    let t, b' = Bus.recording b in
    tape := Some t;
    b'
  in
  let m = Machine.create ~trace ~metrics ~wrap_bus ~poll_deadline () in
  let verdict = run_workload m workload in
  (Option.get !tape, trace, verdict)

let replay_trial ~driver ~tape () =
  let _, _, workload = find_workload driver in
  let trace = Trace.create ~capacity:262_144 () in
  let metrics = Metrics.create () in
  let m =
    Machine.create ~trace ~metrics
      ~wrap_bus:(fun _ -> Bus.replaying tape)
      ~poll_deadline ()
  in
  let verdict = run_workload m workload in
  (trace, verdict)

let record_replay ?fault ~driver ~seed () =
  let tape, live_trace, live = record_trial ?fault ~driver ~seed () in
  let replay_trace, replayed = replay_trial ~driver ~tape () in
  let live_v = driver_visible live
  and replayed_v = driver_visible replayed in
  let ka = comparable_kinds live_trace
  and kb = comparable_kinds replay_trace in
  let mismatch = first_kind_mismatch ka kb in
  {
    rc_driver = driver;
    rc_fault = fault;
    rc_seed = seed;
    rc_tape_length = Bus.tape_length tape;
    rc_live = live_v;
    rc_replayed = replayed_v;
    rc_outcome_match = live_v = replayed_v;
    rc_trace_match = mismatch = None;
    rc_mismatch = mismatch;
  }

(* {1 Export}

   Given an export directory, [run] re-records every failing (detected
   or silent) trial and writes its artifacts there: the event trace and
   the bus tape as versioned JSONL (the tracetool / [Bus.replaying]
   inputs) plus the Chrome-viewable trace JSON. *)

let export_trial ~dir ?fault ~driver ~seed () =
  let tape, trace, _ = record_trial ?fault ~driver ~seed () in
  let base =
    Filename.concat dir
      (Printf.sprintf "%s-%s-seed%d" driver
         (Option.value fault ~default:"clean")
         seed)
  in
  let files =
    [
      (base ^ ".trace.jsonl", Trace_export.to_jsonl trace);
      (base ^ ".tape.jsonl", Trace_export.tape_to_jsonl tape);
      (base ^ ".chrome.json", Trace_export.to_chrome (Trace.events trace));
    ]
  in
  List.iter (fun (path, data) -> Trace_export.write_file path data) files;
  List.map fst files

(* For the check.sh replay gate: record a fault-free trial, replay its
   tape, and persist both event streams. With no injector in the
   picture the two JSONL files must be byte-identical — an empty
   [tracetool diff]. *)
let export_replay_smoke ~dir ~driver ~seed =
  let tape, live_trace, _ = record_trial ~driver ~seed () in
  let replay_trace, _ = replay_trial ~driver ~tape () in
  let recorded =
    Filename.concat dir (Printf.sprintf "%s-smoke.recorded.jsonl" driver)
  in
  let replayed =
    Filename.concat dir (Printf.sprintf "%s-smoke.replayed.jsonl" driver)
  in
  Trace_export.write_file recorded (Trace_export.to_jsonl live_trace);
  Trace_export.write_file replayed (Trace_export.to_jsonl replay_trace);
  (recorded, replayed)

let run ?(seeds = default_seeds) ?profile ?export_dir () =
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        invalid_arg ("Campaign.run: no export directory " ^ dir))
    export_dir;
  let covs =
    List.map (fun (dev, device) -> Coverage.create ~dev device)
      (coverage_devices ())
  in
  let trials =
    List.concat_map
      (fun (driver, range, workload) ->
        List.concat_map
          (fun fault ->
            List.map
              (fun seed ->
                run_trial ~covs ?profile ~driver ~range ~workload ~fault ~seed
                  ())
              seeds)
          fault_classes)
      workloads
  in
  (match export_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun t ->
          match t.outcome with
          | Detected | Silent ->
              ignore
                (export_trial ~dir ~fault:t.fault ~driver:t.driver ~seed:t.seed
                   ())
          | Clean | Recovered -> ())
        trials);
  { trials; coverage = List.map Coverage.report covs }

(* {1 Reporting} *)

let count report ~driver ~fault outcome =
  List.length
    (List.filter
       (fun t -> t.driver = driver && t.fault = fault && t.outcome = outcome)
       report.trials)

let silent_trials report =
  List.filter (fun t -> t.outcome = Silent) report.trials

let unhealthy_trials report =
  List.filter (fun t -> not (Health.is_ok t.health)) report.trials

let pp_report fmt report =
  Format.fprintf fmt "%-10s %-14s %7s %9s %10s %7s %6s  %s@." "driver"
    "fault class" "trials" "detected" "recovered" "silent" "clean" "verdict";
  List.iter
    (fun (driver, _, _) ->
      List.iter
        (fun fault ->
          let c o = count report ~driver ~fault o in
          let detected = c Detected
          and recovered = c Recovered
          and silent = c Silent
          and clean = c Clean in
          let trials = detected + recovered + silent + clean in
          let verdict =
            if silent > 0 then "SILENT CORRUPTION"
            else if recovered > 0 then "recovers"
            else if detected > 0 then "fails safe"
            else "unexercised"
          in
          Format.fprintf fmt "%-10s %-14s %7d %9d %10d %7d %6d  %s@." driver
            fault trials detected recovered silent clean verdict)
        fault_classes)
    workloads;
  let silent = silent_trials report in
  let injected =
    List.fold_left (fun acc t -> acc + t.injections) 0 report.trials
  in
  Format.fprintf fmt
    "@.%d trials, %d faults injected, %d silent corruption%s@."
    (List.length report.trials)
    injected (List.length silent)
    (if List.length silent = 1 then "" else "s");
  List.iter
    (fun t ->
      Format.fprintf fmt "  silent: %s / %s seed %d (%d injections): %s@."
        t.driver t.fault t.seed t.injections t.detail;
      Format.fprintf fmt "    observed: %s@." t.trace_summary)
    silent;
  (* Health regressions are a separate axis from the oracle verdicts: a
     trial can fail safe (detected) yet leave the async path stalled or
     storming, which is what the watchdog flags. *)
  let unhealthy = unhealthy_trials report in
  let stalled =
    List.length
      (List.filter (fun t -> t.health.Health.verdict = Health.Stalled) unhealthy)
  in
  Format.fprintf fmt "health: %d/%d trials non-ok (%d stalled, %d degraded)@."
    (List.length unhealthy)
    (List.length report.trials)
    stalled
    (List.length unhealthy - stalled);
  List.iter
    (fun t ->
      Format.fprintf fmt "  health: %s / %s seed %d: %s@." t.driver t.fault
        t.seed (Health.summary t.health))
    unhealthy;
  if report.coverage <> [] then begin
    Format.fprintf fmt "@.spec coverage across the matrix:@.";
    List.iter
      (fun (r : Coverage.report) ->
        Format.fprintf fmt
          "coverage %-8s registers %d/%d (%.1f%%)  sites %d/%d (%.1f%%)  \
           read %d/%d  write %d/%d@."
          r.rp_dev r.rp_reg_covered r.rp_reg_total (Coverage.reg_percent r)
          r.rp_covered r.rp_total (Coverage.site_percent r) r.rp_read_covered
          r.rp_read_total r.rp_write_covered r.rp_write_total)
      report.coverage
  end

let pp_replay_check fmt rc =
  Format.fprintf fmt
    "%s%s seed %d: tape %d transfers; live %s, replay %s; outcomes %s, \
     traces %s%s"
    rc.rc_driver
    (match rc.rc_fault with Some f -> " / " ^ f | None -> " (no faults)")
    rc.rc_seed rc.rc_tape_length rc.rc_live rc.rc_replayed
    (if rc.rc_outcome_match then "match" else "DIVERGE")
    (if rc.rc_trace_match then "match" else "DIVERGE")
    (match rc.rc_mismatch with Some m -> ": " ^ m | None -> "")
