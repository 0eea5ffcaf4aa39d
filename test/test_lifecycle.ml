(* The request-lifecycle/observability layer (DESIGN.md §15): rid
   threading from Sched through the trace, online and offline arc
   reconstruction with per-stage accounting, lost-vs-spurious late
   completion classification, the trace drop hook, the Chrome flow
   events linking request arcs, and the Health watchdog verdicts. *)

module Sched = Devil_runtime.Sched
module Policy = Devil_runtime.Policy
module Trace = Devil_runtime.Trace
module Trace_export = Devil_runtime.Trace_export
module Metrics = Devil_runtime.Metrics
module Lifecycle = Devil_runtime.Lifecycle
module Health = Devil_runtime.Health

let case name f = Alcotest.test_case name `Quick f

(* A scheduler over a controller that never interrupts, with the full
   observability stack attached; the lifecycle clock is the trace's
   event count, so stage durations are deterministic event ticks. *)
let quiet_observed () =
  let trace = Trace.create ~capacity:512 () in
  let metrics = Metrics.create () in
  let tick = ref 0 in
  let lc = Lifecycle.attach ~clock:(fun () -> !tick) ~metrics trace in
  Trace.subscribe trace (fun _ -> incr tick);
  let t =
    Sched.create ~ctx:(Devil_runtime.Ctx.create ~trace ~metrics ())
      {
        Sched.ctl_raise = (fun ~line:_ -> ());
        ctl_ack = (fun () -> None);
        ctl_eoi = (fun ~line:_ -> ());
      }
  in
  (t, trace, metrics, lc)

(* A controller with one pending line, driving real deliveries — the
   toy from the scheduler suite, here with the lifecycle stack on. *)
let interrupting_observed () =
  let trace = Trace.create ~capacity:512 () in
  let metrics = Metrics.create () in
  let tick = ref 0 in
  let lc = Lifecycle.attach ~clock:(fun () -> !tick) ~metrics trace in
  Trace.subscribe trace (fun _ -> incr tick);
  let tref = ref None in
  let note high =
    match !tref with Some t -> Sched.note_int t high | None -> ()
  in
  let pending = ref None in
  let ctl =
    {
      Sched.ctl_raise =
        (fun ~line ->
          pending := Some line;
          note true);
      ctl_ack =
        (fun () ->
          match !pending with
          | None ->
              note false;
              None
          | Some line ->
              pending := None;
              note false;
              Some line);
      ctl_eoi = (fun ~line:_ -> ());
    }
  in
  let t = Sched.create ~ctx:(Devil_runtime.Ctx.create ~trace ~metrics ()) ctl in
  tref := Some t;
  (t, trace, metrics, lc)

(* {1 Online reconstruction: the full arc through real deliveries} *)

let test_full_arc_online () =
  let t, _trace, metrics, lc = interrupting_observed () in
  let dev_high = ref false in
  Sched.add_source t ~line:2 ~dev:"d" (fun () -> !dev_high);
  Sched.set_handler t ~line:2 ~dev:"d" (fun () ->
      dev_high := false;
      Sched.complete t ~dev:"d" (Ok ()));
  (* The device takes 2 ticks to finish: the line drops between
     requests, so each request gets its own Irq_raised edge. *)
  let submit i =
    Sched.submit t ~dev:"d"
      ~label:(Printf.sprintf "op%d" i)
      ~start:(fun () ->
        ignore (Sched.after t ~ticks:2 (fun () -> dev_high := true)))
      ()
  in
  let r1 = submit 1 in
  let r2 = submit 2 in
  Sched.await t r1;
  Sched.await t r2;
  Alcotest.(check int) "rids mint from 1" 1 (Sched.request_id r1);
  Alcotest.(check int) "rids increase" 2 (Sched.request_id r2);
  Alcotest.(check int) "both submitted" 2 (Lifecycle.submitted lc);
  Alcotest.(check int) "both completed" 2 (Lifecycle.completed lc);
  Alcotest.(check int) "no orphans" 0 (List.length (Lifecycle.orphans lc));
  (match Lifecycle.requests lc with
  | [ a; b ] ->
      Alcotest.(check int) "submit order" 1 a.Lifecycle.rid;
      Alcotest.(check int) "submit order" 2 b.Lifecycle.rid;
      Alcotest.(check bool) "first ok" true a.Lifecycle.ok;
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "req %d complete" r.Lifecycle.rid)
            true (Lifecycle.complete r);
          List.iter
            (fun st ->
              match Lifecycle.stage_ns r st with
              | Some d when d >= 0 -> ()
              | Some d ->
                  Alcotest.failf "req %d %s: negative duration %d"
                    r.Lifecycle.rid (Lifecycle.stage_label st) d
              | None ->
                  Alcotest.failf "req %d: stage %s unobserved on a full arc"
                    r.Lifecycle.rid (Lifecycle.stage_label st))
            Lifecycle.stages)
        [ a; b ];
      (* The second request waited behind the first: its queue-wait
         spans the first's whole service. *)
      (match Lifecycle.stage_ns b Lifecycle.Queue_wait with
      | Some d when d > 0 -> ()
      | _ -> Alcotest.fail "queued request shows no queue wait")
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  (* Stage histograms fed under the metric vocabulary, named by the
     supplied clock's unit: it counts trace events, not nanoseconds. *)
  List.iter
    (fun st ->
      let name =
        Printf.sprintf "lifecycle.d.%s.ticks" (Lifecycle.stage_label st)
      in
      match Metrics.histogram metrics name with
      | Some h -> Alcotest.(check int) (name ^ " fed twice") 2 h.Metrics.count
      | None -> Alcotest.failf "missing histogram %s" name)
    Lifecycle.stages;
  Alcotest.(check int) "lifecycle.submitted counter" 2
    (Metrics.count metrics "lifecycle.submitted");
  Alcotest.(check int) "lifecycle.completed counter" 2
    (Metrics.count metrics "lifecycle.completed");
  Alcotest.(check (option Alcotest.int)) "find by rid" (Some 2)
    (Option.map (fun r -> r.Lifecycle.rid) (Lifecycle.find lc 2))

(* On the default monotonic clock the stage histograms are in
   nanoseconds, and say so. *)
let test_default_clock_names_ns () =
  let trace = Trace.create ~capacity:64 () in
  let metrics = Metrics.create () in
  let _lc = Lifecycle.attach ~metrics trace in
  let t =
    Sched.create ~ctx:(Devil_runtime.Ctx.create ~trace ~metrics ())
      {
        Sched.ctl_raise = (fun ~line:_ -> ());
        ctl_ack = (fun () -> None);
        ctl_eoi = (fun ~line:_ -> ());
      }
  in
  ignore (Sched.submit t ~dev:"d" ~label:"op" ~start:ignore ());
  Sched.complete t ~dev:"d" (Ok ());
  Alcotest.(check bool) "lifecycle.d.total.ns fed" true
    (Metrics.histogram metrics "lifecycle.d.total.ns" <> None);
  Alcotest.(check bool) "no ticks-named histogram" true
    (Metrics.histogram metrics "lifecycle.d.total.ticks" = None)

let test_rid_reaches_request_thunks () =
  let ctx = Devil_runtime.Ctx.create () in
  let t =
    Sched.create ~ctx
      {
        Sched.ctl_raise = (fun ~line:_ -> ());
        ctl_ack = (fun () -> None);
        ctl_eoi = (fun ~line:_ -> ());
      }
  in
  let in_start = ref 0 and in_done = ref 0 in
  let rq =
    Sched.submit t ~dev:"d" ~label:"op"
      ~start:(fun () -> in_start := ctx.rid)
      ~on_done:(fun _ -> in_done := ctx.rid)
      ()
  in
  Sched.complete t ~dev:"d" (Ok ());
  Alcotest.(check int) "start runs under its rid" (Sched.request_id rq)
    !in_start;
  Alcotest.(check int) "on_done runs under its rid" (Sched.request_id rq)
    !in_done;
  Alcotest.(check int) "hook reset after the request" 0 ctx.rid

let test_orphan_until_completion () =
  let t, _, _, lc = quiet_observed () in
  let _rq =
    Sched.submit t ~dev:"d" ~label:"stuck" ~timeout:5 ~start:(fun () -> ()) ()
  in
  Alcotest.(check int) "in flight counts as orphan" 1
    (List.length (Lifecycle.orphans lc));
  for _ = 1 to 6 do
    Sched.tick t
  done;
  Alcotest.(check int) "timeout resolves the orphan" 0
    (List.length (Lifecycle.orphans lc));
  match Lifecycle.requests lc with
  | [ r ] ->
      Alcotest.(check bool) "completed (failed)" true (Lifecycle.complete r);
      Alcotest.(check bool) "not ok" false r.Lifecycle.ok
  | _ -> Alcotest.fail "expected exactly one record"

(* {1 Late completions: lost interrupt vs spurious (the regression
   pair for the Queue_late classification)} *)

let late_completion_scenario () =
  let t, trace, metrics, lc = quiet_observed () in
  let rq =
    Sched.submit t ~dev:"d" ~label:"op" ~timeout:3 ~start:(fun () -> ()) ()
  in
  for _ = 1 to 4 do
    Sched.tick t
  done;
  (* The interrupt finally arrives, after its request timed out. *)
  Sched.complete t ~dev:"d" (Ok ());
  (* And one more completion with no timed-out predecessor left. *)
  Sched.complete t ~dev:"d" (Ok ());
  (t, trace, metrics, lc, rq)

let test_lost_vs_spurious () =
  let _, trace, metrics, lc, rq = late_completion_scenario () in
  Alcotest.(check int) "one lost interrupt" 1 (Lifecycle.lost_interrupts lc);
  Alcotest.(check int) "one spurious completion" 1
    (Lifecycle.spurious_completions lc);
  Alcotest.(check int) "both unhandled at the sched layer" 2
    (Metrics.count metrics "sched.irqs.unhandled");
  (match Lifecycle.find lc (Sched.request_id rq) with
  | Some r ->
      Alcotest.(check bool) "record tagged late_completion" true
        r.Lifecycle.late_completion
  | None -> Alcotest.fail "timed-out request has no record");
  let lates =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Queue_late { rid; _ } -> Some rid
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check (list int))
    "first Queue_late names the timed-out rid, second is spurious"
    [ Sched.request_id rq; 0 ]
    lates

(* {1 The health watchdog} *)

let test_health_clean_run_ok () =
  let t, trace, metrics, lc = interrupting_observed () in
  let dev_high = ref false in
  Sched.add_source t ~line:2 ~dev:"d" (fun () -> !dev_high);
  Sched.set_handler t ~line:2 ~dev:"d" (fun () ->
      dev_high := false;
      Sched.complete t ~dev:"d" (Ok ()));
  let rq =
    Sched.submit t ~dev:"d" ~label:"op" ~start:(fun () -> dev_high := true) ()
  in
  Sched.await t rq;
  let report = Health.evaluate ~lifecycle:lc ~trace ~metrics () in
  Alcotest.(check bool) "clean run is ok" true (Health.is_ok report);
  Alcotest.(check string) "summary" "ok" (Health.summary report);
  Alcotest.(check bool) "counters include the informational submits" true
    (List.mem_assoc "sched.submits" report.Health.counters)

let test_health_timeout_stalls () =
  let _, trace, metrics, lc, _ = late_completion_scenario () in
  let report = Health.evaluate ~lifecycle:lc ~trace ~metrics () in
  (match report.Health.verdict with
  | Health.Stalled -> ()
  | v -> Alcotest.failf "expected stalled, got %s" (Health.verdict_label v));
  let codes = List.map (fun r -> r.Health.code) report.Health.reasons in
  Alcotest.(check bool) "request_timeouts named" true
    (List.mem "request_timeouts" codes);
  Alcotest.(check bool) "lost interrupt also named" true
    (List.mem "lost_interrupts" codes);
  (* The worst reason leads. *)
  match report.Health.reasons with
  | { Health.code = "request_timeouts"; count = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "stall reason must sort first"

let test_health_thresholds_and_degraded () =
  let _, trace, metrics, lc, _ = late_completion_scenario () in
  (* Tolerating the timeout leaves the degraded damage visible. *)
  let report =
    Health.evaluate
      ~thresholds:[ ("request_timeouts", 9) ]
      ~lifecycle:lc ~trace ~metrics ()
  in
  (match report.Health.verdict with
  | Health.Degraded -> ()
  | v -> Alcotest.failf "expected degraded, got %s" (Health.verdict_label v));
  let codes = List.map (fun r -> r.Health.code) report.Health.reasons in
  Alcotest.(check bool) "request_timeouts suppressed" false
    (List.mem "request_timeouts" codes);
  Alcotest.(check bool) "lost_interrupts fires" true
    (List.mem "lost_interrupts" codes);
  Alcotest.(check bool) "spurious_completions fires" true
    (List.mem "spurious_completions" codes)

let test_health_orphan_stalls () =
  let t, trace, metrics, lc = quiet_observed () in
  let _ = Sched.submit t ~dev:"d" ~label:"stuck" ~start:(fun () -> ()) () in
  let report = Health.evaluate ~lifecycle:lc ~trace ~metrics () in
  (match report.Health.verdict with
  | Health.Stalled -> ()
  | v -> Alcotest.failf "expected stalled, got %s" (Health.verdict_label v));
  Alcotest.(check bool) "orphaned_requests named" true
    (List.mem "orphaned_requests"
       (List.map (fun r -> r.Health.code) report.Health.reasons))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_health_json_shape () =
  let _, trace, metrics, lc, _ = late_completion_scenario () in
  let j = Health.to_json (Health.evaluate ~lifecycle:lc ~trace ~metrics ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains j needle))
    [
      "\"verdict\"";
      "\"stalled\"";
      "\"reasons\"";
      "\"request_timeouts\"";
      "\"counters\"";
    ]

(* {1 Export: JSONL rid round-trip and the Chrome flow arcs} *)

(* Two interleaved request arcs plus rid-less noise — every queue
   kind, both Queue_late classifications, and policy events on a
   request's behalf. *)
let arc_events =
  List.mapi
    (fun i kind -> { Trace.seq = i; kind })
    [
      Trace.Queue_submitted { dev = "d"; label = "a"; depth = 1; rid = 1 };
      Trace.Queue_started { dev = "d"; label = "a"; rid = 1 };
      Trace.Queue_submitted { dev = "d"; label = "b"; depth = 2; rid = 2 };
      Trace.Poll { label = "d: ready"; iters = 3; ok = true; rid = 1 };
      Trace.Irq_raised { line = 2; dev = "d"; rid = 1 };
      Trace.Irq_delivered { line = 2; dev = "d"; rid = 1 };
      Trace.Queue_completed { dev = "d"; label = "a"; depth = 1; ok = true; rid = 1 };
      Trace.Queue_started { dev = "d"; label = "b"; rid = 2 };
      Trace.Retry { label = "d: ready"; attempt = 1; reason = "busy"; rid = 2 };
      Trace.Irq_raised { line = 2; dev = "d"; rid = 2 };
      Trace.Irq_delivered { line = 2; dev = "d"; rid = 2 };
      Trace.Queue_completed { dev = "d"; label = "b"; depth = 0; ok = false; rid = 2 };
      Trace.Queue_late { dev = "d"; rid = 2 };
      Trace.Queue_late { dev = "d"; rid = 0 };
      Trace.Bus_read { addr = 0x1f0; width = 8; value = 0x50 };
    ]

let test_jsonl_rid_round_trip () =
  let jsonl = Trace_export.events_to_jsonl arc_events in
  match Trace_export.events_of_jsonl jsonl with
  | Ok evs ->
      Alcotest.(check int) "same length" (List.length arc_events)
        (List.length evs);
      List.iter2
        (fun (a : Trace.event) (b : Trace.event) ->
          if a <> b then
            Alcotest.failf "event %d did not round-trip: %a vs %a" a.Trace.seq
              Trace.pp_event a Trace.pp_event b)
        arc_events evs
  | Error why -> Alcotest.failf "round trip failed: %s" why

let test_jsonl_missing_rid_is_zero () =
  (* A rid-0 event serializes with no "rid" field — the pre-lifecycle
     format 1 shape — and must parse back to rid 0. *)
  let legacy =
    [ { Trace.seq = 0;
        kind = Trace.Queue_submitted { dev = "d"; label = "x"; depth = 1; rid = 0 } } ]
  in
  let jsonl = Trace_export.events_to_jsonl legacy in
  Alcotest.(check bool) "rid field omitted at 0" false (contains jsonl "rid");
  match Trace_export.events_of_jsonl jsonl with
  | Ok [ { kind = Trace.Queue_submitted { rid = 0; _ }; _ } ] -> ()
  | Ok _ -> Alcotest.fail "legacy line parsed to the wrong event"
  | Error why -> Alcotest.failf "legacy line rejected: %s" why

let test_chrome_flow_arcs () =
  let chrome = Trace_export.to_chrome arc_events in
  (* One flow start and one flow end per request, in-between steps on
     the arcs, and the end bound to its enclosing slice. *)
  Alcotest.(check int) "one s per request" 2 (count_substring chrome "\"ph\":\"s\"");
  Alcotest.(check int) "one f per request" 2 (count_substring chrome "\"ph\":\"f\"");
  Alcotest.(check int) "steps: start/irqs/poll/retry/late" 9
    (count_substring chrome "\"ph\":\"t\"");
  Alcotest.(check int) "flow ends bind to the enclosing slice" 2
    (count_substring chrome "\"bp\":\"e\"");
  (* Every flow event carries the lifecycle category and its rid. *)
  Alcotest.(check int) "flow count = s + t + f" 13
    (count_substring chrome "\"cat\":\"lifecycle\"");
  Alcotest.(check int) "req #1 arc" 6 (count_substring chrome "\"req #1\"");
  Alcotest.(check int) "req #2 arc (one extra step: its late completion)" 7
    (count_substring chrome "\"req #2\"");
  Alcotest.(check bool) "flow ids are the rids" true
    (contains chrome "\"id\":1" && contains chrome "\"id\":2");
  (* The rid-less bus event contributes no flow. *)
  Alcotest.(check int) "late completions render both classifications" 1
    (count_substring chrome "late completion (req #2)")
  |> fun () ->
  Alcotest.(check int) "spurious rendered" 1
    (count_substring chrome "spurious completion")

let test_of_events_offline_ticks () =
  let lc = Lifecycle.of_events arc_events in
  Alcotest.(check int) "two requests" 2 (Lifecycle.submitted lc);
  Alcotest.(check int) "two completions" 2 (Lifecycle.completed lc);
  Alcotest.(check int) "lost interrupt from Queue_late rid 2" 1
    (Lifecycle.lost_interrupts lc);
  Alcotest.(check int) "spurious from Queue_late rid 0" 1
    (Lifecycle.spurious_completions lc);
  match Lifecycle.find lc 1 with
  | None -> Alcotest.fail "request 1 missing"
  | Some r ->
      let check_stage st expect =
        Alcotest.(check (option Alcotest.int))
          (Lifecycle.stage_label st) (Some expect) (Lifecycle.stage_ns r st)
      in
      (* seqs: submitted 0, started 1, raised 4, delivered 5, completed 6 *)
      check_stage Lifecycle.Queue_wait 1;
      check_stage Lifecycle.Service 4;
      check_stage Lifecycle.Irq_delivery 1;
      check_stage Lifecycle.Completion 1;
      check_stage Lifecycle.Total 6;
      Alcotest.(check int) "polls attributed" 1 r.Lifecycle.polls

(* {1 The ring-eviction drop hook} *)

let test_drop_hook_counts_evictions () =
  let trace = Trace.create ~capacity:4 () in
  let drops = ref 0 in
  Trace.set_drop_hook trace (fun () -> incr drops);
  for i = 1 to 7 do
    Trace.emit trace (Trace.Cache_invalidated { dev = Printf.sprintf "d%d" i })
  done;
  Alcotest.(check int) "hook fired per eviction" 3 !drops;
  Alcotest.(check int) "matches the retention stat" 3 (Trace.dropped trace)

let test_machine_wires_drop_counter () =
  let trace = Trace.create ~capacity:4 () in
  let metrics = Devil_runtime.Metrics.create () in
  let _m = Drivers.Machine.create ~trace ~metrics () in
  for i = 1 to 10 do
    Trace.emit trace (Trace.Cache_invalidated { dev = Printf.sprintf "d%d" i })
  done;
  Alcotest.(check int) "evictions surface as trace.dropped_events"
    (Trace.dropped trace)
    (Metrics.count metrics "trace.dropped_events");
  Alcotest.(check bool) "and there were some" true (Trace.dropped trace > 0)

(* {1 The campaign surfaces health, not just verdicts} *)

let test_campaign_surfaces_unhealthy_trials () =
  (* Seed 2's dropped-write schedule loses the DMA completion
     interrupt on the queued IDE workload — the canonical "driver hung
     waiting for an IRQ that never came" failure this layer exists to
     name. *)
  let report = Faultcamp.Campaign.run ~seeds:[ 2 ] () in
  let unhealthy = Faultcamp.Campaign.unhealthy_trials report in
  Alcotest.(check bool) "some trial left the machine unhealthy" true
    (unhealthy <> []);
  List.iter
    (fun (tr : Faultcamp.Campaign.trial) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s/seed%d: non-ok carries named reasons"
           tr.Faultcamp.Campaign.driver tr.Faultcamp.Campaign.fault
           tr.Faultcamp.Campaign.seed)
        true
        (tr.Faultcamp.Campaign.health.Health.reasons <> []))
    unhealthy;
  (* The acceptance flip: a fault that loses an interrupt leaves an
     async trial stalled on its request timeout, by name. *)
  Alcotest.(check bool) "a lost interrupt stalls an async trial" true
    (List.exists
       (fun (tr : Faultcamp.Campaign.trial) ->
         List.mem tr.Faultcamp.Campaign.driver
           [ "ide-dma-async"; "net-async" ]
         && tr.Faultcamp.Campaign.health.Health.verdict = Health.Stalled
         && List.exists
              (fun (r : Health.reason) -> r.Health.code = "request_timeouts")
              tr.Faultcamp.Campaign.health.Health.reasons)
       unhealthy)

(* {1 Disabled-path cost: the request hook is a bare store} *)

let test_request_hook_allocation_free () =
  (* The rid attribution ride-along must not allocate: Sched brackets
     every thunk with the machine's request cell, traced or not. *)
  let ctx = Devil_runtime.Ctx.create () in
  let seen = ref 0 in
  let read () = seen := !seen + ctx.rid in
  let a0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    Devil_runtime.Ctx.serving ctx i read ()
  done;
  let a1 = Gc.allocated_bytes () in
  Alcotest.(check int) "each thunk saw its rid" (10_000 * 10_001 / 2) !seen;
  Alcotest.(check int) "cell cleared afterwards" 0 ctx.rid;
  (* allocated_bytes itself boxes its float results; allow that. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-call allocation (%.0f bytes for 10k calls)"
       (a1 -. a0))
    true
    (a1 -. a0 < 512.0)

(* {1 A long-lived machine keeps only what its open requests need}

   4,000 ticks of the soak mix (queued IDE DMA reads, NE2000 sends,
   UART reads, a telemetry tick) on one instrumented machine, with one
   read left in flight at the end: the wheel holds that read's timer
   only, the reconstruction keeps the open request plus its window of
   finished ones, and the orphans are exactly the open requests. The
   checks are structural; nothing reads a clock. *)

let test_soak_machine_stays_bounded () =
  let module Machine = Drivers.Machine in
  let module Ide = Drivers.Ide.Async in
  let module Net = Drivers.Net in
  let trace = Trace.create ~capacity:65536 () in
  let metrics = Metrics.create () in
  let telemetry = Devil_runtime.Telemetry.create ~capacity:256 metrics in
  let events = ref 0 in
  let lifecycle_clock () =
    incr events;
    !events
  in
  let m =
    Machine.create ~trace ~metrics ~telemetry ~lifecycle:true ~lifecycle_clock
      ()
  in
  Hwsim.Piix4.set_latency m.busmaster 128;
  let sched = Machine.sched m in
  let ide =
    Ide.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  Net.Devil_driver.init
    (Net.Devil_driver.create m.ne2000_dev)
    ~mac:"\x02\x00\x00\x00\x00\x42";
  let net = Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let read k = Ide.read_dma ide ~lba:(1000 + (2 * (k mod 32))) ~count:2 () in
  for tick = 0 to 3_999 do
    List.iter (Ide.await ide) (List.init 4 (fun k -> read ((tick * 4) + k)));
    List.iter (Net.Async.await net)
      (List.init 4 (fun k -> Net.Async.send net (String.make (48 + k) 'f')));
    ignore (Hwsim.Ne2000.take_transmitted m.nic);
    for _ = 1 to 8 do
      ignore (Machine.Instance.get m.uart_dev "parity_mode")
    done;
    Machine.Instance.get_struct m.uart_dev "line_status";
    Machine.telemetry_tick m
  done;
  let lc = Option.get m.lifecycle in
  Alcotest.(check int) "32,000 requests served" 32_000 (Lifecycle.completed lc);
  let last = read 0 in
  Alcotest.(check int) "one request open" 1 (Sched.outstanding sched);
  Alcotest.(check int) "the wheel holds the open request's timer only" 1
    (Sched.timers sched);
  let retained = List.length (Lifecycle.requests lc) in
  if retained > Lifecycle.window + 1 then
    Alcotest.failf "%d requests retained (window %d + 1 open)" retained
      Lifecycle.window;
  Alcotest.(check (list int)) "the orphans are the open request"
    [ Sched.request_id last ]
    (List.map (fun r -> r.Lifecycle.rid) (Lifecycle.orphans lc));
  Ide.await ide last;
  Alcotest.(check int) "the wheel is empty" 0 (Sched.timers sched);
  Alcotest.(check int) "no orphans" 0 (List.length (Lifecycle.orphans lc))

let () =
  Alcotest.run "lifecycle"
    [
      ( "reconstruction",
        [
          case "full arc online, stages and histograms" test_full_arc_online;
          case "default clock names histograms .ns" test_default_clock_names_ns;
          case "rid reaches request thunks" test_rid_reaches_request_thunks;
          case "orphan until completion" test_orphan_until_completion;
          case "offline replay in seq ticks" test_of_events_offline_ticks;
        ] );
      ( "late completions",
        [ case "lost vs spurious classification" test_lost_vs_spurious ] );
      ( "health",
        [
          case "clean run is ok" test_health_clean_run_ok;
          case "timeout stalls the verdict" test_health_timeout_stalls;
          case "thresholds; degraded damage" test_health_thresholds_and_degraded;
          case "orphans stall the verdict" test_health_orphan_stalls;
          case "json shape" test_health_json_shape;
        ] );
      ( "export",
        [
          case "jsonl rid round-trip" test_jsonl_rid_round_trip;
          case "missing rid parses to 0" test_jsonl_missing_rid_is_zero;
          case "chrome flow arcs" test_chrome_flow_arcs;
        ] );
      ( "drop hook",
        [
          case "evictions fire the hook" test_drop_hook_counts_evictions;
          case "machine wires the metrics counter" test_machine_wires_drop_counter;
        ] );
      ( "campaign",
        [
          case "unhealthy trials carry named reasons"
            test_campaign_surfaces_unhealthy_trials;
        ] );
      ( "cost",
        [
          case "request hook is allocation-free" test_request_hook_allocation_free;
          case "4,000 soak ticks keep only open requests' state"
            test_soak_machine_stays_bounded;
        ] );
    ]
