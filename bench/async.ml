(* {1 bench async: queued/interrupt-driven drivers vs synchronous polling}

   The Table-2-style suite (DESIGN.md §13). Four rows, each a
   fresh metrics-instrumented machine:

   - ide-sync-poll    one-command-at-a-time DMA reads, completion by
                      busmaster status polling (each status read costs
                      a real ISA transfer and advances the deferred
                      engine one unit);
   - ide-queued-dma   the same reads through Ide.Async: a FIFO of
                      commands completed by the IRQ, windowed at depth
                      4;
   - net-poll-rx      frames drained by calling receive in a poll
                      loop, paying ring-state reads for every empty
                      poll between bursts;
   - net-burst-rx     Net.Async: one PRX interrupt drains a whole
                      burst; idle gaps cost scheduler ticks, not bus
                      reads.

   The table reports CPU us per operation under the calibrated §4 cost
   model: singles and block elements at their ISA price, serviced
   interrupts at [t_irq], and — for the event-driven rows — one
   [t_loop] per scheduler tick (the loop iteration that replaces a
   poll's bus read). Media/engine time is excluded: it is [latency]
   virtual ticks in BOTH columns and overlaps the queue's completion
   processing, which is exactly why the queued driver's sustainable
   command rate is CPU-bound. "p99 wait" is the 99th-percentile
   virtual-tick latency from submit (or frame injection) to
   completion — queueing behind a saturated engine is visible there.

   In-process invariants (exit 1): every transferred byte verified
   against ground truth, and zero outstanding requests after each
   event-driven row (the queue-leak check). The rows' gates ([suite]
   below; tools/benchcheck evaluates them offline) hold ide-queued-dma
   at >= 2x the polling row's throughput. *)

module Machine = Drivers.Machine

let dma_latency = 128
let ide_ops = 32
let ide_count = 2 (* sectors per command *)
let ide_window = 4 (* queued commands in flight *)
let net_bursts = 8
let net_burst = 8 (* frames per burst *)
let net_gap = 32 (* idle ticks (or empty polls) between bursts *)

type row = {
  ar_name : string;
  ar_ops : int;
  ar_singles_per_op : float;
  ar_block_per_op : float;
  ar_irqs_per_op : float;
  ar_wait_ticks_per_op : float;
  ar_cpu_us_per_op : float;
  ar_p99_wait : int;
}

let percentile_of_array a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0 else a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* CPU time of one row under the cost model. [sched_ticks] is 0 for
   the polling rows: their loop iterations are the status reads
   already counted as singles. *)
let cpu_us ~(delta : Perfmodel.Cost.io_sample) ~sched_ticks =
  (Perfmodel.Cost.pio_time delta
  +. (float_of_int sched_ticks *. Perfmodel.Cost.t_loop))
  *. 1e6

let sector_pattern i =
  Bytes.init
    (ide_count * 512)
    (fun j -> Char.chr (((i * 7) + (j * 13) + 3) land 0xff))

let fill_disk (m : Machine.t) =
  for i = 0 to ide_ops - 1 do
    let b = sector_pattern i in
    for s = 0 to ide_count - 1 do
      Hwsim.Ide_disk.write_sector m.disk
        ~lba:(1000 + (i * ide_count) + s)
        (Bytes.sub b (s * 512) 512)
    done
  done

let row_ide_sync () =
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  fill_disk m;
  Hwsim.Piix4.set_latency m.busmaster dma_latency;
  let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let memory = Hwsim.Piix4.memory m.busmaster in
  let before = Perfmodel.Cost.sample_of_metrics metrics in
  let waits = Array.make ide_ops 0 in
  for i = 0 to ide_ops - 1 do
    let t0 = Devil_runtime.Metrics.count metrics "poll.ticks" in
    let got =
      Drivers.Ide.Devil_driver.read_dma d ~memory
        ~lba:(1000 + (i * ide_count))
        ~count:ide_count
    in
    Common.verify ~row:"ide-sync-poll" ~what:(Printf.sprintf "command %d" i)
      (sector_pattern i) got;
    waits.(i) <- Devil_runtime.Metrics.count metrics "poll.ticks" - t0
  done;
  let after = Perfmodel.Cost.sample_of_metrics metrics in
  let delta =
    {
      Perfmodel.Cost.singles = after.Perfmodel.Cost.singles - before.Perfmodel.Cost.singles;
      block_items = after.Perfmodel.Cost.block_items - before.Perfmodel.Cost.block_items;
      irqs = 0;
    }
  in
  let ops = float_of_int ide_ops in
  {
    ar_name = "ide-sync-poll";
    ar_ops = ide_ops;
    ar_singles_per_op = float_of_int delta.Perfmodel.Cost.singles /. ops;
    ar_block_per_op = float_of_int delta.Perfmodel.Cost.block_items /. ops;
    ar_irqs_per_op = 0.0;
    ar_wait_ticks_per_op =
      float_of_int (Array.fold_left ( + ) 0 waits) /. ops;
    ar_cpu_us_per_op = cpu_us ~delta ~sched_ticks:0 /. ops;
    ar_p99_wait = percentile_of_array waits 0.99;
  }

let row_ide_queued () =
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  fill_disk m;
  Hwsim.Piix4.set_latency m.busmaster dma_latency;
  let sched = Machine.sched m in
  let d =
    Drivers.Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let before = Perfmodel.Cost.sample_of_metrics metrics in
  let pending = ref [] in
  for i = 0 to ide_ops - 1 do
    let rq =
      Drivers.Ide.Async.read_dma d
        ~lba:(1000 + (i * ide_count))
        ~count:ide_count
        ~on_data:(fun got ->
          Common.verify ~row:"ide-queued-dma"
            ~what:(Printf.sprintf "command %d" i)
            (sector_pattern i) got)
        ()
    in
    pending := rq :: !pending;
    if List.length !pending >= ide_window then begin
      List.iter (Drivers.Ide.Async.await d) !pending;
      pending := []
    end
  done;
  List.iter (Drivers.Ide.Async.await d) !pending;
  Drivers.Ide.Async.drain d;
  if Devil_runtime.Sched.outstanding sched <> 0 then
    Common.fail "ide-queued-dma: %d request(s) leaked on the queue"
      (Devil_runtime.Sched.outstanding sched);
  let after = Perfmodel.Cost.sample_of_metrics metrics in
  let irqs = Devil_runtime.Metrics.count metrics "sched.irqs.delivered" in
  let ticks = Devil_runtime.Metrics.count metrics "sched.ticks" in
  if irqs <> ide_ops then
    Common.fail "ide-queued-dma: %d interrupts delivered for %d commands" irqs
      ide_ops;
  let delta =
    {
      Perfmodel.Cost.singles = after.Perfmodel.Cost.singles - before.Perfmodel.Cost.singles;
      block_items = after.Perfmodel.Cost.block_items - before.Perfmodel.Cost.block_items;
      irqs;
    }
  in
  let ops = float_of_int ide_ops in
  {
    ar_name = "ide-queued-dma";
    ar_ops = ide_ops;
    ar_singles_per_op = float_of_int delta.Perfmodel.Cost.singles /. ops;
    ar_block_per_op = float_of_int delta.Perfmodel.Cost.block_items /. ops;
    ar_irqs_per_op = float_of_int irqs /. ops;
    ar_wait_ticks_per_op = float_of_int ticks /. ops;
    ar_cpu_us_per_op = cpu_us ~delta ~sched_ticks:ticks /. ops;
    ar_p99_wait =
      Option.value
        (Devil_runtime.Metrics.percentile metrics "sched.queue.wait_ticks" 0.99)
        ~default:0;
  }

let net_frame b k =
  String.init 64 (fun j ->
      Char.chr (((b * net_burst) + k + (j * 5) + 1) land 0xff))

let row_net_poll () =
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  let net = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init net ~mac:"\x02\x00\x00\x00\x00\x21";
  let before = Perfmodel.Cost.sample_of_metrics metrics in
  let frames = ref 0 in
  for b = 0 to net_bursts - 1 do
    for k = 0 to net_burst - 1 do
      if not (Hwsim.Ne2000.inject_frame m.nic (net_frame b k)) then
        Common.fail "net-poll-rx: ring rejected frame %d/%d" b k
    done;
    for k = 0 to net_burst - 1 do
      match Drivers.Net.Devil_driver.receive net with
      | Some f ->
          incr frames;
          Common.verify ~row:"net-poll-rx" ~what:(Printf.sprintf "frame %d/%d" b k)
            (Bytes.of_string (net_frame b k))
            (Bytes.of_string f)
      | None -> Common.fail "net-poll-rx: frame %d/%d not received" b k
    done;
    (* The inter-burst gap: a poll-driven driver pays ring-state reads
       for every empty check. *)
    for _ = 1 to net_gap do
      match Drivers.Net.Devil_driver.receive net with
      | Some _ -> Common.fail "net-poll-rx: unexpected frame in the gap"
      | None -> ()
    done
  done;
  let after = Perfmodel.Cost.sample_of_metrics metrics in
  let delta =
    {
      Perfmodel.Cost.singles = after.Perfmodel.Cost.singles - before.Perfmodel.Cost.singles;
      block_items = after.Perfmodel.Cost.block_items - before.Perfmodel.Cost.block_items;
      irqs = 0;
    }
  in
  let total = net_bursts * net_burst in
  let ops = float_of_int total in
  if !frames <> total then
    Common.fail "net-poll-rx: drained %d of %d frames" !frames total;
  {
    ar_name = "net-poll-rx";
    ar_ops = total;
    ar_singles_per_op = float_of_int delta.Perfmodel.Cost.singles /. ops;
    ar_block_per_op = float_of_int delta.Perfmodel.Cost.block_items /. ops;
    ar_irqs_per_op = 0.0;
    ar_wait_ticks_per_op = 0.0;
    ar_cpu_us_per_op = cpu_us ~delta ~sched_ticks:0 /. ops;
    ar_p99_wait = 0;
  }

let row_net_burst () =
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  let net = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init net ~mac:"\x02\x00\x00\x00\x00\x22";
  let sched = Machine.sched m in
  let a = Drivers.Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let total = net_bursts * net_burst in
  let got = ref 0 in
  let injected_at = ref 0 in
  let waits = Array.make total 0 in
  Drivers.Net.Async.on_frame a (fun f ->
      let i = !got in
      if i < total then begin
        let b = i / net_burst and k = i mod net_burst in
        Common.verify ~row:"net-burst-rx" ~what:(Printf.sprintf "frame %d/%d" b k)
          (Bytes.of_string (net_frame b k))
          (Bytes.of_string f);
        waits.(i) <- Devil_runtime.Sched.now sched - !injected_at
      end;
      incr got);
  let before = Perfmodel.Cost.sample_of_metrics metrics in
  for b = 0 to net_bursts - 1 do
    for k = 0 to net_burst - 1 do
      if not (Hwsim.Ne2000.inject_frame m.nic (net_frame b k)) then
        Common.fail "net-burst-rx: ring rejected frame %d/%d" b k
    done;
    injected_at := Devil_runtime.Sched.now sched;
    let target = (b + 1) * net_burst in
    let budget = ref (net_gap * 4) in
    while !got < target && !budget > 0 do
      Devil_runtime.Sched.tick sched;
      decr budget
    done;
    if !got < target then
      Common.fail "net-burst-rx: burst %d drained %d of %d frames" b !got target;
    (* The same inter-burst gap: idle loop iterations, no bus traffic. *)
    for _ = 1 to net_gap do
      Devil_runtime.Sched.tick sched
    done
  done;
  if Devil_runtime.Sched.outstanding sched <> 0 then
    Common.fail "net-burst-rx: %d request(s) leaked on the queue"
      (Devil_runtime.Sched.outstanding sched);
  let after = Perfmodel.Cost.sample_of_metrics metrics in
  let irqs = Devil_runtime.Metrics.count metrics "sched.irqs.delivered" in
  let ticks = Devil_runtime.Metrics.count metrics "sched.ticks" in
  let delta =
    {
      Perfmodel.Cost.singles = after.Perfmodel.Cost.singles - before.Perfmodel.Cost.singles;
      block_items = after.Perfmodel.Cost.block_items - before.Perfmodel.Cost.block_items;
      irqs;
    }
  in
  let ops = float_of_int total in
  {
    ar_name = "net-burst-rx";
    ar_ops = total;
    ar_singles_per_op = float_of_int delta.Perfmodel.Cost.singles /. ops;
    ar_block_per_op = float_of_int delta.Perfmodel.Cost.block_items /. ops;
    ar_irqs_per_op = float_of_int irqs /. ops;
    ar_wait_ticks_per_op = float_of_int ticks /. ops;
    ar_cpu_us_per_op = cpu_us ~delta ~sched_ticks:ticks /. ops;
    ar_p99_wait = percentile_of_array waits 0.99;
  }

let ratio ~sync ~queued = sync.ar_cpu_us_per_op /. queued.ar_cpu_us_per_op

(* Each event-driven row and the polling row it is measured against. *)
let paired = [ ("ide-queued-dma", "ide-sync-poll"); ("net-burst-rx", "net-poll-rx") ]
let names = [ "ide-sync-poll"; "ide-queued-dma"; "net-poll-rx"; "net-burst-rx" ]

let suite =
  let open Benchrow in
  {
    name = "async";
    workloads = "async" :: names;
    layers = [ "config"; "e2e" ];
    nullable = [];
    gates =
      [ (("async", "config", "dma_latency"), At_least 1.0) ]
      @ List.concat_map
          (fun w ->
            List.map
              (fun (metric, bound) -> ((w, "e2e", metric), bound))
              [
                ("ops", At_least 1.0);
                ("singles_per_op", At_least 0.0);
                ("block_per_op", At_least 0.0);
                ("irqs_per_op", At_least 0.0);
                ("wait_ticks_per_op", At_least 0.0);
                ("cpu_us_per_op", At_least 0.001);
                ("ops_per_s", At_least 1.0);
                ("p99_wait_ticks", At_least 0.0);
              ])
          names
      (* The acceptance criterion: queued DMA sustains at least twice
         the polling driver's command rate under the same cost model,
         and burst receive is no slower than polling. *)
      @ [
          (("ide-queued-dma", "e2e", "ratio_vs_sync"), At_least 2.0);
          (("net-burst-rx", "e2e", "ratio_vs_sync"), At_least 1.0);
        ];
  }

let to_rows results =
  let row_of r =
    let e metric unit v = Benchrow.row r.ar_name "e2e" metric unit v in
    [
      e "ops" "count" (float_of_int r.ar_ops);
      e "singles_per_op" "count" (Benchrow.fixed 2 r.ar_singles_per_op);
      e "block_per_op" "count" (Benchrow.fixed 2 r.ar_block_per_op);
      e "irqs_per_op" "count" (Benchrow.fixed 3 r.ar_irqs_per_op);
      e "wait_ticks_per_op" "ticks" (Benchrow.fixed 1 r.ar_wait_ticks_per_op);
      e "cpu_us_per_op" "us" (Benchrow.fixed 3 r.ar_cpu_us_per_op);
      e "ops_per_s" "1/s" (Benchrow.fixed 0 (1e6 /. r.ar_cpu_us_per_op));
      e "p99_wait_ticks" "ticks" (float_of_int r.ar_p99_wait);
    ]
    @
    match List.assoc_opt r.ar_name paired with
    | None -> []
    | Some sync ->
        let sync = List.find (fun s -> s.ar_name = sync) results in
        [ e "ratio_vs_sync" "ratio" (Benchrow.fixed 3 (ratio ~sync ~queued:r)) ]
  in
  Benchrow.row "async" "config" "dma_latency" "ticks" (float_of_int dma_latency)
  :: List.concat_map row_of results

let usage () =
  Format.eprintf "usage: bench async [--out FILE]@.";
  exit 2

let run args =
  let out = ref "BENCH_async.json" in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | _ -> usage ()
  in
  parse args;
  Common.section
    "Async drivers: queued/interrupt-driven vs synchronous polling (Table 2 \
     style)";
  let results =
    [ row_ide_sync (); row_ide_queued (); row_net_poll (); row_net_burst () ]
  in
  Format.printf "engine latency %d ticks; queue window %d; %d-frame bursts, \
                 %d-tick gaps@.@."
    dma_latency ide_window net_burst net_gap;
  Format.printf "%-16s %5s %11s %8s %8s %9s %10s %10s %9s %8s@." "row" "ops"
    "singles/op" "blk/op" "irqs/op" "ticks/op" "cpu us/op" "cpu ops/s"
    "p99 wait" "vs sync";
  List.iter
    (fun r ->
      Format.printf "%-16s %5d %11.1f %8.1f %8.2f %9.1f %10.2f %10.0f %9d %8s@."
        r.ar_name r.ar_ops r.ar_singles_per_op r.ar_block_per_op
        r.ar_irqs_per_op r.ar_wait_ticks_per_op r.ar_cpu_us_per_op
        (1e6 /. r.ar_cpu_us_per_op)
        r.ar_p99_wait
        (match List.assoc_opt r.ar_name paired with
        | Some sync ->
            let sync = List.find (fun s -> s.ar_name = sync) results in
            Printf.sprintf "%.2fx" (ratio ~sync ~queued:r)
        | None -> "-"))
    results;
  Format.printf
    "@.CPU us/op under the calibrated cost model: polls pay a bus read per \
     engine unit,@.the event loop pays one t_loop tick — media time is \
     identical in both columns and@.overlaps the queue's completion \
     processing. p99 wait is virtual ticks to completion.@.";
  Common.finish suite ~out:!out (to_rows results)
