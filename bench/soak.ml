(* {1 bench soak: the telemetry acceptance workload (DESIGN.md §16)}

   A mixed sync/async workload under a ticking telemetry sampler: every
   virtual "second" issues queued IDE DMA reads, async NE2000 sends and
   a burst of synchronous UART register traffic, then takes one
   telemetry tick (sampling every counter/histogram plus the health
   verdict). Every clock in the run is deterministic — the lifecycle
   clock counts trace events, the telemetry clock counts ticks — so
   BENCH_telemetry.json and the series dump are byte-stable across
   runs, which is what lets check.sh gate on the committed artifact.

   In-process invariant (exit 1): every DMA'd byte and transmitted
   frame verified against ground truth. The gates ([suite] below,
   re-evaluated offline by tools/benchcheck) hold health ok at the end
   and a nonzero completion count in every tick's window. *)

module Machine = Drivers.Machine

let ide_per_tick = 4
let net_per_tick = 4
let uart_per_tick = 8

let suite =
  let open Benchrow in
  let e metric = ("soak", "e2e", metric) in
  {
    name = "soak";
    workloads = [ "soak" ];
    layers = [ "config"; "e2e" ];
    nullable = [];
    gates =
      [
        (("soak", "config", "ticks"), At_least 1.0);
        (e "series_evictions", At_least 0.0);
        (e "sched.completions.min_per_tick", At_least 1.0);
        (e "sched.completions.mean_per_tick", At_least 1.0);
        (e "health.reasons", Exactly 0.0);
      ];
  }

(* A histogram's unit, read off its name: [.ns] timers, lifecycle
   stages in [.ticks] and the [_ticks] queue wait; the rest count. *)
let hist_unit name =
  if String.ends_with ~suffix:".ns" name then "ns"
  else if String.ends_with ~suffix:"ticks" name then "ticks"
  else "count"

let usage () =
  Format.eprintf
    "usage: bench soak [--ticks N] [--out FILE] [--series FILE] \
     [--openmetrics FILE]@.";
  exit 2

let run args =
  let ticks = ref 6 in
  let out = ref "BENCH_telemetry.json" in
  let series_out = ref None in
  let om_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--ticks" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> ticks := n
        | _ -> usage ());
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--series" :: v :: rest ->
        series_out := Some v;
        parse rest
    | "--openmetrics" :: v :: rest ->
        om_out := Some v;
        parse rest
    | _ -> usage ()
  in
  parse args;
  Common.section "Telemetry soak: mixed sync/async workload under a ticking sampler";
  let trace = Devil_runtime.Trace.create ~capacity:65536 () in
  let metrics = Devil_runtime.Metrics.create () in
  let telemetry = Devil_runtime.Telemetry.create ~capacity:256 metrics in
  let event_clock =
    let n = ref 0 in
    fun () ->
      incr n;
      !n
  in
  let m =
    Machine.create ~trace ~metrics ~telemetry ~lifecycle:true
      ~lifecycle_clock:event_clock ()
  in
  Async.fill_disk m;
  Hwsim.Piix4.set_latency m.busmaster Async.dma_latency;
  let sched = Machine.sched m in
  let ide =
    Drivers.Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev
      ~piix4:m.piix4_dev
  in
  let net_sync = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init net_sync ~mac:"\x02\x00\x00\x00\x00\x42";
  let net = Drivers.Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let frames_sent = ref 0 in
  let min_completions = ref max_int in
  for t = 0 to !ticks - 1 do
    let completions_before =
      Devil_runtime.Metrics.count metrics "sched.completions"
    in
    (* Async IDE: a window of queued DMA reads over the pre-filled
       sectors (command indices wrap, so any tick count replays the
       same ground truth). *)
    let pending = ref [] in
    for k = 0 to ide_per_tick - 1 do
      let cmd = ((t * ide_per_tick) + k) mod Async.ide_ops in
      let rq =
        Drivers.Ide.Async.read_dma ide
          ~lba:(1000 + (cmd * Async.ide_count))
          ~count:Async.ide_count
          ~on_data:(fun got ->
            Common.verify ~row:"soak-ide"
              ~what:(Printf.sprintf "tick %d command %d" t cmd)
              (Async.sector_pattern cmd) got)
          ()
      in
      pending := rq :: !pending;
      if List.length !pending >= 2 then begin
        List.iter (Drivers.Ide.Async.await ide) !pending;
        pending := []
      end
    done;
    List.iter (Drivers.Ide.Async.await ide) !pending;
    Drivers.Ide.Async.drain ide;
    (* Async net: a burst of sends, verified against the NIC's
       transmit log. *)
    let rqs =
      List.init net_per_tick (fun k ->
          Drivers.Net.Async.send net (Latency.net_frame (!frames_sent + k)))
    in
    List.iter (Drivers.Net.Async.await net) rqs;
    Drivers.Net.Async.drain net;
    let sent = Hwsim.Ne2000.take_transmitted m.nic in
    if List.length sent <> net_per_tick then
      Common.fail "soak-net: tick %d transmitted %d of %d frames" t
        (List.length sent) net_per_tick
    else
      List.iteri
        (fun k f ->
          Common.verify ~row:"soak-net"
            ~what:(Printf.sprintf "tick %d frame %d" t k)
            (Bytes.of_string (Latency.net_frame (!frames_sent + k)))
            (Bytes.of_string f))
        sent;
    frames_sent := !frames_sent + net_per_tick;
    (* Sync foreground traffic: UART variable and structure reads. *)
    for _ = 1 to uart_per_tick do
      ignore (Machine.Instance.get m.uart_dev "parity_mode")
    done;
    Machine.Instance.get_struct m.uart_dev "line_status";
    (* One telemetry tick closes the window. *)
    Machine.telemetry_tick m;
    min_completions :=
      min !min_completions
        (Devil_runtime.Metrics.count metrics "sched.completions"
        - completions_before)
  done;
  let report = Machine.health m in
  (* The artifact keeps the scheduler/bus/IO aggregate rates; the
     per-register counters stay in the series dump, where the full
     registry belongs. *)
  let rate_prefixes = [ "sched."; "bus."; "io."; "trace."; "cache." ] in
  let rates =
    List.filter
      (fun name ->
        List.exists (fun prefix -> String.starts_with ~prefix name) rate_prefixes)
      (Devil_runtime.Telemetry.counter_names telemetry)
    |> List.map (fun name ->
           let points = Devil_runtime.Telemetry.counter_series telemetry name in
           let total, last_delta =
             match List.rev points with
             | (p : Devil_runtime.Telemetry.counter_point) :: _ ->
                 (p.total, p.delta)
             | [] -> (0, 0)
           in
           (name, total, last_delta, float_of_int total /. float_of_int !ticks))
  in
  let windows =
    List.map
      (fun name ->
        let last =
          match
            List.rev (Devil_runtime.Telemetry.hist_series telemetry name)
          with
          | (p : Devil_runtime.Telemetry.hist_point) :: _ -> p
          | [] ->
              {
                Devil_runtime.Telemetry.h_at = 0;
                h_count = 0;
                h_sum = 0;
                h_p50 = 0;
                h_p95 = 0;
                h_p99 = 0;
              }
        in
        (name, last))
      (Devil_runtime.Telemetry.hist_names telemetry)
  in
  let evictions = Devil_runtime.Telemetry.evictions telemetry in
  (* Console summary: the dashboard's numbers, once. *)
  Format.printf "%d tick(s), %d counter series, %d histogram series@." !ticks
    (List.length (Devil_runtime.Telemetry.counter_names telemetry))
    (List.length windows);
  Format.printf "  %-36s %10s %12s %14s@." "counter" "total" "last delta"
    "mean per tick";
  List.iter
    (fun (name, total, last_delta, mean) ->
      Format.printf "  %-36s %10d %12d %14.3f@." name total last_delta mean)
    rates;
  Format.printf "  %-36s %8s %10s %10s %10s@." "histogram (last window)"
    "count" "p50" "p95" "p99";
  List.iter
    (fun (name, (p : Devil_runtime.Telemetry.hist_point)) ->
      Format.printf "  %-36s %8d %10d %10d %10d@." name p.h_count p.h_p50
        p.h_p95 p.h_p99)
    windows;
  Format.printf "health: %s; series evictions: %d@."
    (Devil_runtime.Health.summary report)
    evictions;
  let count metric v = Benchrow.row "soak" "e2e" metric "count" (float_of_int v) in
  let rows =
    Benchrow.
      [
        row "soak" "config" "ticks" "count" (float_of_int !ticks);
        row "soak" "config" "ring_capacity" "count"
          (float_of_int (Devil_runtime.Telemetry.capacity telemetry));
      ]
    @ [
        count "series_evictions" evictions;
        count "sched.completions.min_per_tick" !min_completions;
      ]
    @ List.concat_map
        (fun (name, total, last_delta, mean) ->
          [
            count (name ^ ".total") total;
            count (name ^ ".last_delta") last_delta;
            (* The total one tick earlier: never negative, because a
               tick's delta never exceeds the lifetime total. *)
            count (name ^ ".prev_total") (total - last_delta);
            Benchrow.row "soak" "e2e" (name ^ ".mean_per_tick") "count"
              (Benchrow.fixed 3 mean);
          ])
        rates
    @ List.concat_map
        (fun (name, (p : Devil_runtime.Telemetry.hist_point)) ->
          let v metric x =
            Benchrow.row "soak" "e2e" (name ^ "." ^ metric) (hist_unit name)
              (float_of_int x)
          in
          [
            count (name ^ ".count") p.h_count;
            v "sum" p.h_sum;
            v "p50" p.h_p50;
            v "p95" p.h_p95;
            v "p99" p.h_p99;
          ])
        windows
    @ Common.health_rows "soak" report
  in
  (match !series_out with
  | None -> ()
  | Some path ->
      Devil_runtime.Trace_export.write_file path
        (Devil_runtime.Trace_export.series_to_jsonl telemetry);
      Format.printf "wrote %s@." path);
  (match !om_out with
  | None -> ()
  | Some path ->
      Devil_runtime.Trace_export.write_file path
        (Devil_runtime.Trace_export.to_openmetrics ~health:report ~telemetry
           metrics);
      Format.printf "wrote %s@." path);
  Common.finish suite ~out:!out rows
