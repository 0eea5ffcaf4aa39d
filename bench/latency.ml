(* {1 bench latency: per-stage request-latency accounting (DESIGN.md §15)}

   Runs the two queued workloads (the async suite's shapes) on a
   lifecycle-instrumented machine — trace + metrics + the
   {!Devil_runtime.Lifecycle} reconstructor on its default monotonic
   nanosecond clock — and reports, per workload, the
   [lifecycle.<dev>.<stage>.ns] histograms: where a request's wall
   time goes between submit and completion (queue wait, device
   service, interrupt delivery, completion handler).

   In-process invariant (exit 1): every byte verified against ground
   truth. The gates ([suite] below, re-evaluated offline by
   tools/benchcheck) hold every submitted request completed, zero
   orphans, no late completions and the machine's
   {!Devil_runtime.Health} verdict Ok at the end of each workload, so
   the committed BENCH_latency.json keeps a healthy run on record. *)

module Machine = Drivers.Machine

let net_frames = 24
let net_window = 4

type wl = {
  lw_name : string;
  lw_dev : string;
  lw_requests : int;
  lw_completed : int;
  lw_orphans : int;
  lw_lost : int;
  lw_spurious : int;
  lw_stages : (string * Devil_runtime.Metrics.hist_snapshot) list;
  lw_health : Devil_runtime.Health.report;
}

let machine () =
  let trace = Devil_runtime.Trace.create ~capacity:8192 () in
  let metrics = Devil_runtime.Metrics.create () in
  (Machine.create ~trace ~metrics ~lifecycle:true (), metrics, trace)

let result ~name ~dev (m : Machine.t) metrics =
  let lc =
    match m.Machine.lifecycle with
    | Some lc -> lc
    | None -> failwith "latency: machine built without a lifecycle handle"
  in
  let stages =
    List.filter_map
      (fun st ->
        let label = Devil_runtime.Lifecycle.stage_label st in
        Option.map
          (fun h -> (label, h))
          (Devil_runtime.Metrics.histogram metrics
             (Printf.sprintf "lifecycle.%s.%s.ns" dev label)))
      Devil_runtime.Lifecycle.stages
  in
  {
    lw_name = name;
    lw_dev = dev;
    lw_requests = Devil_runtime.Lifecycle.submitted lc;
    lw_completed = Devil_runtime.Lifecycle.completed lc;
    lw_orphans = List.length (Devil_runtime.Lifecycle.orphans lc);
    lw_lost = Devil_runtime.Lifecycle.lost_interrupts lc;
    lw_spurious = Devil_runtime.Lifecycle.spurious_completions lc;
    lw_stages = stages;
    lw_health = Machine.health m;
  }

let wl_ide () =
  let m, metrics, trace = machine () in
  Async.fill_disk m;
  Hwsim.Piix4.set_latency m.busmaster Async.dma_latency;
  let sched = Machine.sched m in
  let d =
    Drivers.Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev
      ~piix4:m.piix4_dev
  in
  let pending = ref [] in
  for i = 0 to Async.ide_ops - 1 do
    let rq =
      Drivers.Ide.Async.read_dma d
        ~lba:(1000 + (i * Async.ide_count))
        ~count:Async.ide_count
        ~on_data:(fun got ->
          Common.verify ~row:"ide-dma-async"
            ~what:(Printf.sprintf "command %d" i)
            (Async.sector_pattern i) got)
        ()
    in
    pending := rq :: !pending;
    if List.length !pending >= Async.ide_window then begin
      List.iter (Drivers.Ide.Async.await d) !pending;
      pending := []
    end
  done;
  List.iter (Drivers.Ide.Async.await d) !pending;
  Drivers.Ide.Async.drain d;
  (result ~name:"ide-dma-async" ~dev:"ide" m metrics, trace)

let net_frame i =
  String.init 48 (fun j -> Char.chr (((i * 11) + (j * 3) + 7) land 0xff))

let wl_net () =
  let m, metrics, trace = machine () in
  let sync = Drivers.Net.Devil_driver.create m.ne2000_dev in
  let sched = Machine.sched m in
  let a = Drivers.Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  Drivers.Net.Devil_driver.init sync ~mac:"\x02\x00\x00\x00\x00\x23";
  let pending = ref [] in
  for i = 0 to net_frames - 1 do
    let rq = Drivers.Net.Async.send a (net_frame i) in
    pending := rq :: !pending;
    if List.length !pending >= net_window then begin
      List.iter (Drivers.Net.Async.await a) !pending;
      pending := []
    end
  done;
  List.iter (Drivers.Net.Async.await a) !pending;
  Drivers.Net.Async.drain a;
  let sent = Hwsim.Ne2000.take_transmitted m.nic in
  if List.length sent <> net_frames then
    Common.fail "net-async: %d of %d frames transmitted" (List.length sent)
      net_frames
  else
    List.iteri
      (fun i f ->
        Common.verify ~row:"net-async" ~what:(Printf.sprintf "frame %d" i)
          (Bytes.of_string (net_frame i))
          (Bytes.of_string f))
      sent;
  (result ~name:"net-async" ~dev:"ne2000" m metrics, trace)

let names = [ "ide-dma-async"; "net-async" ]

(* [irq_delivery] is not required: coalesced interrupts (one raise
   covering several completions) leave some requests without both
   boundaries, and a histogram only exists once fed. *)
let required_stages = [ "queue_wait"; "service"; "completion"; "total" ]

let suite =
  let open Benchrow in
  {
    name = "latency";
    workloads = "latency" :: names;
    layers =
      "config" :: "e2e"
      :: List.map Devil_runtime.Lifecycle.stage_label Devil_runtime.Lifecycle.stages;
    nullable = [];
    gates =
      [ (("latency", "config", "dma_latency"), At_least 1.0) ]
      @ List.concat_map
          (fun w ->
            List.map
              (fun (metric, bound) -> ((w, "e2e", metric), bound))
              [
                ("requests", At_least 1.0);
                ("unfinished", Exactly 0.0);
                ("orphans", Exactly 0.0);
                ("lost_interrupts", Exactly 0.0);
                ("spurious_completions", Exactly 0.0);
                ("health.reasons", Exactly 0.0);
              ]
            @ List.map (fun st -> ((w, st, "count"), At_least 1.0)) required_stages)
          names;
  }

let to_rows wls =
  Benchrow.row "latency" "config" "dma_latency" "ticks"
    (float_of_int Async.dma_latency)
  :: List.concat_map
       (fun w ->
         let count metric n = Benchrow.row w.lw_name "e2e" metric "count" (float_of_int n) in
         [
           count "requests" w.lw_requests;
           count "completed" w.lw_completed;
           count "unfinished" (w.lw_requests - w.lw_completed);
           count "orphans" w.lw_orphans;
           count "lost_interrupts" w.lw_lost;
           count "spurious_completions" w.lw_spurious;
         ]
         @ List.concat_map
             (fun (stage, (h : Devil_runtime.Metrics.hist_snapshot)) ->
               let ns metric v = Benchrow.row w.lw_name stage metric "ns" v in
               [
                 Benchrow.row w.lw_name stage "count" "count" (float_of_int h.count);
                 ns "p50" (float_of_int h.p50);
                 ns "p95" (float_of_int h.p95);
                 ns "p99" (float_of_int h.p99);
                 ns "mean" (Benchrow.fixed 1 h.mean);
               ])
             w.lw_stages
         @ Common.health_rows w.lw_name w.lw_health)
       wls

let usage () =
  Format.eprintf "usage: bench latency [--out FILE] [--trace-dir DIR]@.";
  exit 2

let run args =
  let out = ref "BENCH_latency.json" in
  let trace_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := Some v;
        parse rest
    | _ -> usage ()
  in
  parse args;
  Common.section "Request latency: per-stage accounting over the queued drivers";
  let runs = [ wl_ide (); wl_net () ] in
  (* The event streams behind the table, replayable through
     `tracetool lifecycle` / `tracetool convert` — the offline half of
     the straggler-chasing workflow (README). *)
  (match !trace_dir with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      List.iter
        (fun (w, trace) ->
          let path = Filename.concat dir (w.lw_name ^ ".trace.jsonl") in
          Devil_runtime.Trace_export.write_file path
            (Devil_runtime.Trace_export.events_to_jsonl
               (Devil_runtime.Trace.events trace));
          Format.printf "wrote %s@." path)
        runs);
  let wls = List.map fst runs in
  List.iter
    (fun w ->
      Format.printf
        "%s (dev %s): %d requests, %d completed, %d orphaned; health %s@."
        w.lw_name w.lw_dev w.lw_requests w.lw_completed w.lw_orphans
        (Devil_runtime.Health.summary w.lw_health);
      Format.printf "  %-14s %7s %12s %12s %12s %12s@." "stage" "count"
        "p50 ns" "p95 ns" "p99 ns" "mean ns";
      List.iter
        (fun (label, (h : Devil_runtime.Metrics.hist_snapshot)) ->
          Format.printf "  %-14s %7d %12d %12d %12d %12.1f@." label h.count
            h.p50 h.p95 h.p99 h.mean)
        w.lw_stages;
      Format.printf "@.")
    wls;
  Format.printf
    "Stage vocabulary (DESIGN.md §15): queue_wait (submit->start), service \
     (start->irq),@.irq_delivery (raise->dispatch), completion \
     (dispatch->done), total (submit->done).@.";
  Common.finish suite ~out:!out (to_rows wls)
