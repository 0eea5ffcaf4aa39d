(* async_soak: the [bench soak] mix. Each tick queues 4 interrupt-driven
   IDE DMA reads, sends 4 frames through the interrupt-driven NE2000
   driver, reads 8 UART variables and one structure, then takes one
   telemetry tick, on a machine with trace, metrics, lifecycle and
   telemetry on. It is the only workload where Sched, the 8259A path
   and the observability modules do the work.

   Per-tick cost grows with the machine's history (Health counts
   orphans over every request Lifecycle has seen; cancelled timers stay
   in their wheel bucket), so a run is a sequence of rounds of a fixed
   number of ticks, each on a fresh machine. Past ~100 ticks the trace
   ring evicts; trace drops are tolerated by threshold, every other
   health reason fails the round. *)

module M = Drivers.Machine
module R = Devil_runtime
module Ide = Drivers.Ide
module Net = Drivers.Net

let ticks_per_round = 160
let ide_per_tick = 4
let net_per_tick = 4
let uart_per_tick = 8
let ide_cmds = 32 (* distinct pre-filled commands *)
let ide_count = 2 (* sectors per command *)
let ide_lba = 1000
let dma_latency = 128
let thresholds = [ ("trace_drops", max_int) ]

type rig = {
  m : M.t;
  sched : R.Sched.t;
  ide : Ide.Async.t;
  net : Net.Async.t;
  metrics : R.Metrics.t;
  trace : R.Trace.t;
}

let construct ?wrap_bus () =
  Harness.compile_specs ();
  let trace = R.Trace.create ~capacity:65536 () in
  let metrics = R.Metrics.create () in
  let telemetry = R.Telemetry.create ~capacity:256 metrics in
  (* Lifecycle stages are timed in trace events, so the run's virtual
     clocks are deterministic. *)
  let events = ref 0 in
  let lifecycle_clock () =
    incr events;
    !events
  in
  let m =
    M.create ~trace ~metrics ~telemetry ~lifecycle:true ~lifecycle_clock
      ?wrap_bus ()
  in
  Hwsim.Piix4.set_latency m.busmaster dma_latency;
  let sched = M.sched m in
  let ide =
    Ide.Async.create ~sched ~line:M.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster)
      ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let nic = Net.Devil_driver.create m.ne2000_dev in
  Net.Devil_driver.init nic ~mac:"\x02\x00\x00\x00\x00\x42";
  let net = Net.Async.create ~sched ~line:M.irq_net m.ne2000_dev in
  { m; sched; ide; net; metrics; trace }

(* An instrumented machine installs Policy's global observer; drop it
   with the machine. *)
let setup () =
  ignore (construct ());
  R.Policy.unobserve ()

let sector_byte ~salt cmd j = ((cmd * 7) + (j * 13) + 3 + salt) land 0xff
let sector_len = ide_count * Hwsim.Ide_disk.sector_bytes

let fill_disk ~salt (m : M.t) =
  for cmd = 0 to ide_cmds - 1 do
    for s = 0 to ide_count - 1 do
      Hwsim.Ide_disk.write_sector m.disk
        ~lba:(ide_lba + (cmd * ide_count) + s)
        (Bytes.init Hwsim.Ide_disk.sector_bytes (fun j ->
             Char.chr
               (sector_byte ~salt cmd ((s * Hwsim.Ide_disk.sector_bytes) + j))))
    done
  done

let sectors_ok ~salt cmd got =
  Bytes.length got = sector_len
  &&
  let same = ref true in
  for j = 0 to sector_len - 1 do
    if Char.code (Bytes.unsafe_get got j) <> sector_byte ~salt cmd j then
      same := false
  done;
  !same

let frame ~salt i len =
  String.init len (fun j -> Char.chr (((i * 11) + (j * 3) + 7 + salt) land 0xff))

(* One tick. Returns the wall time of its telemetry tick. *)
let tick rig ~rng ~salt ~frames ~ok (sp : Spans.t) =
  let pending = ref [] in
  let await rq = Spans.around sp Spans.await (fun () -> Ide.Async.await rig.ide rq) in
  for _ = 1 to ide_per_tick do
    let cmd = Random.State.int rng ide_cmds in
    let rq =
      Ide.Async.read_dma rig.ide
        ~lba:(ide_lba + (cmd * ide_count))
        ~count:ide_count
        ~on_data:(fun got -> if not (sectors_ok ~salt cmd got) then ok := false)
        ()
    in
    pending := rq :: !pending;
    if List.length !pending >= 2 then begin
      List.iter await !pending;
      pending := []
    end
  done;
  List.iter await !pending;
  Spans.around sp Spans.drain (fun () -> Ide.Async.drain rig.ide);
  let sent =
    List.init net_per_tick (fun k ->
        frame ~salt (!frames + k) (48 + Random.State.int rng 17))
  in
  frames := !frames + net_per_tick;
  let rqs = List.map (Net.Async.send rig.net) sent in
  List.iter
    (fun rq ->
      Spans.around sp Spans.await (fun () -> Net.Async.await rig.net rq))
    rqs;
  Spans.around sp Spans.drain (fun () -> Net.Async.drain rig.net);
  if Hwsim.Ne2000.take_transmitted rig.m.nic <> sent then ok := false;
  for _ = 1 to uart_per_tick do
    ignore (M.Instance.get rig.m.uart_dev "parity_mode")
  done;
  M.Instance.get_struct rig.m.uart_dev "line_status";
  let t0 = Clock.ns () in
  let span = Spans.open_at sp Spans.telemetry t0 in
  M.telemetry_tick ~thresholds rig.m;
  let t1 = Clock.ns () in
  Spans.close_at sp span t1;
  t1 - t0

(* Wall time of an idle [Sched.tick], in microseconds. *)
let idle_tick_us sched =
  Harness.per_call ~samples:16 ~iters:8 (fun () -> R.Sched.tick sched) /. 1e3

let round ~rng ~salt ~frames (sp : Spans.t) (ph : Harness.phase) =
  let wrap_bus = if sp.enabled then Some (Spans.wrap sp) else None in
  let rig = construct ?wrap_bus () in
  fill_disk ~salt rig.m;
  M.reset_io_stats rig.m;
  let count name = R.Metrics.count rig.metrics name in
  let ticks0 = count "sched.ticks"
  and irqs0 = count "sched.irqs.delivered"
  and events0 = R.Trace.recorded rig.trace in
  let tele_first = ref 0 and tele_last = ref 0 in
  let t = ref 0 and ok = ref true in
  let op () =
    let tele = tick rig ~rng ~salt ~frames ~ok sp in
    if !t = 0 then tele_first := tele;
    tele_last := tele
  in
  Harness.alloc_begin ph;
  while !t < ticks_per_round do
    let completions = count "sched.completions" in
    ok := true;
    if not (Harness.timed_op ph sp op) then ok := false;
    if count "sched.completions" <= completions then ok := false;
    if not !ok then
      Harness.fail_op ph "tick %d: wrong data or no completion" !t;
    incr t
  done;
  Harness.alloc_end ph;
  ph.units <- ph.units + 1;
  if R.Sched.outstanding rig.sched <> 0 then
    Harness.problem ph "%d request(s) left on the queue"
      (R.Sched.outstanding rig.sched);
  let health = M.health ~thresholds rig.m in
  if not (R.Health.is_ok health) then
    Harness.problem ph "health %s" (R.Health.summary health);
  let st = M.stats rig.m in
  let ticks = count "sched.ticks" - ticks0
  and irqs = count "sched.irqs.delivered" - irqs0 in
  ph.sim_us <-
    ph.sim_us
    +. (Perfmodel.Cost.pio_time
          { singles = st.reads + st.writes; block_items = st.block_items; irqs }
       +. (float_of_int ticks *. Perfmodel.Cost.t_loop))
       *. 1e6;
  ph.sim_ops <- ph.sim_ops + ticks_per_round;
  List.iter
    (fun (k, v) -> Harness.add_count ph k v)
    [
      ("io.reads", st.reads);
      ("io.writes", st.writes);
      ("io.block_ops", st.block_ops);
      ("io.block_items", st.block_items);
      ("sched.ticks", ticks);
      ("sched.irqs", irqs);
      ("trace.events", R.Trace.recorded rig.trace - events0);
    ];
  if sp.enabled then begin
    Harness.add_layer ph "rounds" 1.0;
    Harness.add_layer ph "telemetry.first_ns" (float_of_int !tele_first);
    Harness.add_layer ph "telemetry.last_ns" (float_of_int !tele_last);
    Harness.add_layer ph "trace.dropped" (float_of_int (R.Trace.dropped rig.trace));
    Harness.add_layer ph "lifecycle.retained"
      (float_of_int
         (match rig.m.lifecycle with
         | Some lc -> List.length (R.Lifecycle.requests lc)
         | None -> 0));
    Harness.add_layer ph "idle_tick.last_us" (idle_tick_us rig.sched)
  end;
  R.Policy.unobserve ()

let run ~seed ~stop (sp : Spans.t) (ph : Harness.phase) =
  let rng = Random.State.make [| seed; 0x50a4 |] in
  let salt = Random.State.int rng 256 in
  let frames = ref 0 in
  while Harness.continue ph stop do
    round ~rng ~salt ~frames sp ph
  done

(* Idle tick of a soak machine with no history. *)
let fresh_idle_tick_us () =
  let rig = construct () in
  let us = idle_tick_us rig.sched in
  R.Policy.unobserve ();
  us
