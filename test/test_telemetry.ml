(* The telemetry suite (DESIGN.md §16).

   Four angles:

   - The sampler: tick-counter time, per-metric series rings with
     bounded capacity and loud eviction accounting, counter deltas,
     and windowed histogram percentiles that answer a different
     question than the lifetime ones.
   - Determinism: identical tick streams produce byte-identical JSONL
     series dumps, the dump round-trips through the parser, and the
     OpenMetrics exposition is well formed.
   - Both engines: each driver, run on a whole machine, leaves the
     same registry on the compiled engine as on the interpreter.
   - The disabled path: {!Machine.telemetry_tick} on an
     uninstrumented machine is allocation-free. *)

module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Health = Devil_runtime.Health
module Telemetry = Devil_runtime.Telemetry
module Trace_export = Devil_runtime.Trace_export
module Machine = Drivers.Machine

let case name f = Alcotest.test_case name `Quick f

(* {1 The sampler} *)

let test_counter_series () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:8 m in
  Alcotest.(check int) "no ticks yet" 0 (Telemetry.ticks tel);
  for t = 1 to 4 do
    Metrics.incr m ~by:t "work.done";
    Telemetry.tick tel
  done;
  Alcotest.(check int) "four ticks" 4 (Telemetry.ticks tel);
  Alcotest.(check (list string))
    "counter names" [ "work.done" ]
    (Telemetry.counter_names tel);
  let pts = Telemetry.counter_series tel "work.done" in
  Alcotest.(check int) "four points" 4 (List.length pts);
  List.iteri
    (fun i (p : Telemetry.counter_point) ->
      let t = i + 1 in
      Alcotest.(check int) (Printf.sprintf "tick %d at" t) t p.Telemetry.at;
      Alcotest.(check int)
        (Printf.sprintf "tick %d delta" t)
        t p.Telemetry.delta;
      Alcotest.(check int)
        (Printf.sprintf "tick %d total" t)
        (t * (t + 1) / 2)
        p.Telemetry.total)
    pts;
  Alcotest.(check int) "no evictions" 0 (Telemetry.evictions tel)

let test_series_ring_bound () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:3 m in
  for _ = 1 to 10 do
    Metrics.incr m "c";
    Telemetry.tick tel
  done;
  let pts = Telemetry.counter_series tel "c" in
  Alcotest.(check int) "ring keeps capacity points" 3 (List.length pts);
  Alcotest.(check (list int))
    "latest ticks retained" [ 8; 9; 10 ]
    (List.map (fun (p : Telemetry.counter_point) -> p.Telemetry.at) pts);
  Alcotest.(check int) "evictions counted" 7 (Telemetry.evictions tel)

let test_windowed_vs_lifetime_percentiles () =
  let m = Metrics.create () in
  let tel = Telemetry.create m in
  (* Window 1: a hundred fast samples. Window 2: a hundred slow ones.
     The lifetime p50 straddles both populations; the window-2 p50
     sees only the slow ones. *)
  for _ = 1 to 100 do
    Metrics.observe m "lat" 1
  done;
  Telemetry.tick tel;
  for _ = 1 to 100 do
    Metrics.observe m "lat" 1000
  done;
  Telemetry.tick tel;
  let lifetime_p50 =
    match Metrics.percentile m "lat" 50.0 with
    | Some v -> v
    | None -> Alcotest.fail "lifetime histogram missing"
  in
  let w2 =
    match List.rev (Telemetry.hist_series tel "lat") with
    | last :: _ -> last
    | [] -> Alcotest.fail "no histogram window sampled"
  in
  Alcotest.(check int) "window 2 sample count" 100 w2.Telemetry.h_count;
  Alcotest.(check int) "window 2 sum" 100_000 w2.Telemetry.h_sum;
  Alcotest.(check bool)
    (Printf.sprintf "windowed p50 (%d) > lifetime p50 (%d)" w2.Telemetry.h_p50
       lifetime_p50)
    true
    (w2.Telemetry.h_p50 > lifetime_p50);
  Alcotest.(check bool)
    "windowed percentiles are ordered" true
    (w2.Telemetry.h_p50 <= w2.Telemetry.h_p95
    && w2.Telemetry.h_p95 <= w2.Telemetry.h_p99)

(* {1 Determinism: replayed ticks give byte-identical series} *)

let feed_fixture (m : Metrics.t) (tel : Telemetry.t) =
  for t = 1 to 6 do
    Metrics.incr m ~by:(3 + (t mod 2)) "sched.completions";
    Metrics.incr m "io.ops";
    Metrics.observe m "sched.queue.wait_ticks" (1 + ((t * 7) mod 40));
    Metrics.observe m "sched.queue.wait_ticks" (1 + ((t * 13) mod 90));
    let health = Health.evaluate ~metrics:m () in
    Telemetry.tick ~health tel
  done

let test_series_dump_deterministic () =
  let dump () =
    let m = Metrics.create () in
    let tel = Telemetry.create ~capacity:16 m in
    feed_fixture m tel;
    Trace_export.series_to_jsonl tel
  in
  let a = dump () and b = dump () in
  Alcotest.(check string) "two identical runs dump identical bytes" a b

(* The version-1 header, field for field: one tick is one second, so
   [hz] is the string "1" and reads back as 1.0. *)
let test_series_header () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:16 m in
  feed_fixture m tel;
  let dump = Trace_export.series_to_jsonl tel in
  let header = List.hd (String.split_on_char '\n' dump) in
  Alcotest.(check string) "header line"
    {|{"devil_series_version":1,"hz":"1","ticks":6,"capacity":16,"series_evictions":0}|}
    header;
  match Trace_export.series_of_jsonl dump with
  | Error e -> Alcotest.fail ("series dump did not parse back: " ^ e)
  | Ok sf -> Alcotest.(check (float 0.)) "hz reads back" 1.0 sf.sf_hz

let test_series_roundtrip () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:16 m in
  feed_fixture m tel;
  let dump = Trace_export.series_to_jsonl tel in
  match Trace_export.series_of_jsonl dump with
  | Error e -> Alcotest.fail ("series dump did not parse back: " ^ e)
  | Ok sf ->
      Alcotest.(check int) "ticks round-trip" 6 sf.Trace_export.sf_ticks;
      Alcotest.(check int) "capacity round-trip" 16 sf.Trace_export.sf_capacity;
      Alcotest.(check int)
        "evictions round-trip"
        (Telemetry.evictions tel)
        sf.Trace_export.sf_evictions;
      let counters, hists, healths =
        List.fold_left
          (fun (c, h, l) -> function
            | Trace_export.S_counter _ -> (c + 1, h, l)
            | Trace_export.S_hist _ -> (c, h + 1, l)
            | Trace_export.S_health _ -> (c, h, l + 1))
          (0, 0, 0) sf.Trace_export.sf_points
      in
      Alcotest.(check int) "counter points" (2 * 6) counters;
      Alcotest.(check int) "hist points" 6 hists;
      Alcotest.(check int) "health points" 6 healths

let test_openmetrics_exposition () =
  let m = Metrics.create () in
  let tel = Telemetry.create m in
  Metrics.incr m ~by:42 "sched.completions";
  Metrics.observe m "sched.queue.wait_ticks" 5;
  Metrics.observe m "sched.queue.wait_ticks" 900;
  Telemetry.tick tel;
  let health = Health.evaluate ~metrics:m () in
  let out = Trace_export.to_openmetrics ~health ~telemetry:tel m in
  let has needle =
    Alcotest.(check bool) ("exposition mentions " ^ needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
       go 0)
  in
  has "# TYPE devil_sched_completions counter";
  has "devil_sched_completions_total 42";
  (* The dropped-events counter is always exported, even at zero, so
     dashboards can alert on it without a state change. *)
  has "devil_trace_dropped_events_total 0";
  has "# TYPE devil_sched_queue_wait_ticks histogram";
  has "devil_sched_queue_wait_ticks_bucket{le=\"+Inf\"} 2";
  has "devil_sched_queue_wait_ticks_count 2";
  has "devil_telemetry_ticks 1";
  has "devil_telemetry_series_evictions_total 0";
  has "devil_health 0";
  Alcotest.(check bool)
    "document ends with # EOF" true
    (let tail = "# EOF\n" in
     String.length out >= String.length tail
     && String.sub out (String.length out - String.length tail)
          (String.length tail)
        = tail)

(* A syntax pass over a machine-generated exposition: a queued NE2000
   send and UART traffic on a machine with trace, metrics, lifecycle
   and telemetry. Every line is a [# TYPE]/[# HELP] comment or a
   [name{labels} value] sample with a well-formed name, [# EOF] comes
   last, and the samples alerting depends on are present. Not a full
   OpenMetrics parser — enough to catch malformed names, missing
   values or a truncated document. *)
let test_openmetrics_line_syntax () =
  let trace = Trace.create ~capacity:4096 () in
  let metrics = Metrics.create () in
  let telemetry = Telemetry.create metrics in
  let m = Machine.create ~trace ~metrics ~telemetry ~lifecycle:true () in
  let sync = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init sync ~mac:"\x02\x00\x00\x00\x00\x42";
  let net =
    Drivers.Net.Async.create ~sched:(Machine.sched m) ~line:Machine.irq_net
      m.ne2000_dev
  in
  Drivers.Net.Async.await net (Drivers.Net.Async.send net (String.make 48 'x'));
  Drivers.Net.Async.drain net;
  Machine.Instance.get_struct m.uart_dev "line_status";
  Machine.telemetry_tick m;
  let out =
    Trace_export.to_openmetrics ~health:(Machine.health m) ~telemetry metrics
  in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         n
  in
  let line_ok line =
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; n; ("counter" | "gauge" | "histogram") ] -> name_ok n
    | "#" :: "HELP" :: n :: _ :: _ -> name_ok n
    | _ when line <> "" && line.[0] = '#' -> false
    | _ -> (
        match String.rindex_opt line ' ' with
        | None -> false
        | Some sp ->
            let series = String.sub line 0 sp in
            let name =
              match String.index_opt series '{' with
              | Some b when series.[String.length series - 1] = '}' ->
                  String.sub series 0 b
              | Some _ -> ""
              | None -> series
            in
            name_ok name
            && float_of_string_opt
                 (String.sub line (sp + 1) (String.length line - sp - 1))
               <> None)
  in
  match List.rev (String.split_on_char '\n' out) with
  | "" :: "# EOF" :: body ->
      List.iter
        (fun l -> Alcotest.(check bool) ("well-formed: " ^ l) true (line_ok l))
        body;
      List.iter
        (fun sample ->
          Alcotest.(check bool) ("has " ^ sample) true
            (List.exists (String.starts_with ~prefix:sample) body))
        [
          "devil_sched_completions_total 1";
          "devil_trace_dropped_events_total 0";
          "devil_lifecycle_ne2000_total_ns_count 1";
          "devil_health 0";
          "devil_telemetry_series_evictions_total 0";
        ]
  | _ -> Alcotest.fail "exposition must end with a single \"# EOF\" line"

(* {1 Both engines: a driver's registry is the same on each}

   A machine runs one driver over its device model, once on each
   runtime engine, each with a registry of its own. The two runs must
   return the same driver results and export the same registry, byte
   for byte through the JSON and OpenMetrics exporters: stub I/O,
   cache outcomes, polls and bus traffic alike. The differential
   suites hold each instance alone to the interpreter over a memory
   bus; this holds what the drivers add on a whole machine. *)

let registry_fingerprint m =
  Metrics.to_json m ^ "\n" ^ Trace_export.to_openmetrics m

let engines_agree (workload : Machine.t -> string) () =
  let run interpret =
    let metrics = Metrics.create () in
    let m = Machine.create ~metrics ~interpret () in
    let result = workload m in
    (result, metrics)
  in
  let compiled, mc = run false in
  let interpreted, mi = run true in
  Alcotest.(check string) "same driver results" interpreted compiled;
  Alcotest.(check bool) "the driver's register I/O is counted" true
    (List.exists
       (fun (name, n) -> n > 0 && String.starts_with ~prefix:"io." name)
       (Metrics.counters mi));
  Alcotest.(check string) "same registry" (registry_fingerprint mi)
    (registry_fingerprint mc)

let bytes_digest b = Digest.to_hex (Digest.bytes b)

let mouse_workload (m : Machine.t) =
  let module D = Drivers.Mouse.Devil_driver in
  let d = D.create m.mouse_dev in
  let probed = D.probe d in
  D.init d;
  Hwsim.Busmouse.move m.mouse ~dx:(-7) ~dy:9;
  Hwsim.Busmouse.set_buttons m.mouse 0b011;
  let show (s : Drivers.Mouse.state) =
    Printf.sprintf "%d,%d,%d" s.dx s.dy s.buttons
  in
  let first = show (D.read_state d) in
  let second = show (D.read_state d) in
  D.set_interrupts d false;
  Printf.sprintf "probe %b; %s; %s" probed first second

let ide_pio_workload (m : Machine.t) =
  let module D = Drivers.Ide.Devil_driver in
  let d = D.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let data = Bytes.init (4 * 512) (fun i -> Char.chr ((i * 7) land 0xff)) in
  D.write_sectors d ~lba:32 ~count:4 ~mult:1 ~path:`Block ~width:`W16 data;
  let reads =
    List.map
      (fun (path, width) ->
        bytes_digest (D.read_sectors d ~lba:32 ~count:4 ~mult:1 ~path ~width))
      [ (`Loop, `W16); (`Loop, `W32); (`Block, `W16); (`Block, `W32) ]
  in
  let count, lba = D.read_task_file d in
  String.concat " "
    ((D.identify d :: reads) @ [ string_of_int count; string_of_int lba ])

let ide_dma_workload (m : Machine.t) =
  let module D = Drivers.Ide.Devil_driver in
  let d = D.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let memory = Hwsim.Piix4.memory m.busmaster in
  let data = Bytes.init (2 * 512) (fun i -> Char.chr ((i * 13) land 0xff)) in
  D.write_dma d ~memory ~lba:64 ~count:2 data;
  bytes_digest (D.read_dma d ~memory ~lba:64 ~count:2)

let net_workload (m : Machine.t) =
  let module D = Drivers.Net.Devil_driver in
  let d = D.create m.ne2000_dev in
  let mac = "\x02\x00\x00\x00\x00\x01" in
  D.init_loopback d ~mac;
  D.send d "a frame through the loopback";
  let got = D.receive d in
  D.ack_interrupts d;
  Printf.sprintf "%S %s"
    (Option.value got ~default:"<none>")
    (Digest.to_hex (Digest.string (D.station_address d)))

let pic_workload (m : Machine.t) =
  let module D = Drivers.Pic_driver.Devil_driver in
  let d = D.create m.pic_dev in
  D.init d ~vector_base:0x20 ~single:false ~with_icw4:true ~cascade_map:0x04;
  D.set_mask d 0xab;
  let mask = D.read_mask d in
  D.set_mask d 0x00;
  Hwsim.Pic8259.raise_irq m.pic ~line:6;
  let pending = D.pending_requests d in
  let vector = Hwsim.Pic8259.inta m.pic in
  let serving = D.in_service d in
  D.specific_eoi d ~line:6;
  Printf.sprintf "mask %x, irr %x, vector %s, isr %x then %x" mask pending
    (match vector with Some v -> string_of_int v | None -> "-")
    serving (D.in_service d)

let dma_workload (m : Machine.t) =
  let module D = Drivers.Dma_driver.Devil_driver in
  let d = D.create m.dma_dev in
  D.master_clear d;
  D.program_channel d ~channel:1 ~address:0x80 ~count:7
    ~transfer:Drivers.Dma_driver.Write_memory ~mode:Drivers.Dma_driver.Single
    ~auto_init:false;
  let moved =
    Hwsim.Dma8237.device_request m.dma ~channel:1
      ~data:(Bytes.of_string "8 bytes!") Hwsim.Dma8237.To_memory
  in
  Printf.sprintf "moved %d, tc %b, address %x" moved
    (D.terminal_count_reached d 1)
    (D.readback_address d 1)

let sound_workload (m : Machine.t) =
  let module D = Drivers.Sound.Devil_driver in
  let d = D.create m.sound_dev in
  D.set_volume d ~left:20 ~right:30;
  D.line_gain d 11;
  let version = D.chip_version d in
  D.mute d true;
  D.play d [ 1; 2; 3; 250 ];
  let recorded = D.record d 4 in
  Printf.sprintf "version %d, recorded [%s]" version
    (String.concat ";" (List.map string_of_int recorded))

let gfx_workload (m : Machine.t) =
  let module D = Drivers.Gfx.Devil_driver in
  let d = D.create m.gfx_dev in
  List.iter
    (fun depth ->
      D.set_depth d depth;
      D.fill_rect d { x = 2; y = 2; w = 10; h = 6 } ~color:3;
      D.copy_rect d { x = 20; y = 2; w = 10; h = 6 } ~dx:18 ~dy:0;
      D.sync d)
    [ 8; 24; 32 ];
  String.concat ","
    (List.init 40 (fun x ->
         string_of_int (Hwsim.Permedia2.pixel m.gfx ~x ~y:4)))

let serial_workload (m : Machine.t) =
  let module D = Drivers.Serial.Devil_driver in
  let uart = m.uart_dev in
  (* Direct stub calls first: a cached read twice, a set, a structure
     read and a block write. *)
  let parity () =
    Devil_ir.Value.to_string (Machine.Instance.get uart "parity_mode")
  in
  let p0 = parity () in
  let p1 = parity () in
  Machine.Instance.set uart "parity_mode" (Devil_ir.Value.Int 5);
  Machine.Instance.get_struct uart "line_status";
  Machine.Instance.write_block uart "tx_data" (Array.make 16 0x55);
  ignore (Hwsim.Uart16550.take_transmitted m.uart);
  let d = D.create uart in
  D.init d ~baud:115200;
  D.send d "hello";
  let sent = Hwsim.Uart16550.take_transmitted m.uart in
  Hwsim.Uart16550.inject m.uart "ok";
  let got = D.recv d ~max:8 in
  Printf.sprintf "parity %s %s, baud %d, sent %S, got %S, self-test %b" p0 p1
    (D.configured_baud d) sent got (D.self_test d)

let rtc_workload (m : Machine.t) =
  let module D = Drivers.Rtc.Devil_driver in
  let d = D.create m.rtc_dev in
  D.set_time d { Drivers.Rtc.hours = 7; minutes = 59; seconds = 58 };
  D.set_alarm d { Drivers.Rtc.hours = 8; minutes = 0; seconds = 0 };
  D.enable_alarm_irq d true;
  Hwsim.Mc146818.tick_seconds m.rtc 2;
  let t = D.read_time d in
  Printf.sprintf "%02d:%02d:%02d, flags %x" t.hours t.minutes t.seconds
    (D.pending_interrupts d)

let keyboard_workload (m : Machine.t) =
  let module D = Drivers.Keyboard.Devil_driver in
  let d = D.create m.kbd_dev in
  let ok = D.init d in
  ignore (Hwsim.I8042.press m.kbd 0x2a);
  ignore (Hwsim.I8042.press m.kbd 0x10);
  let scancodes =
    List.init 3 (fun _ ->
        match D.poll_scancode d with
        | Some c -> string_of_int c
        | None -> "-")
  in
  let leds = D.set_leds d 0x2 in
  D.write_config d 0x61;
  Printf.sprintf "init %b, scancodes %s, leds %b, config %x" ok
    (String.concat "," scancodes) leds (D.read_config d)

(* {1 Disabled path: telemetry_tick on a bare machine is free} *)

let test_disabled_telemetry_tick_allocation_free () =
  (* No metrics registry, hence no telemetry handle: the per-tick call
     a workload makes unconditionally must cost nothing. *)
  let m = Machine.create () in
  Machine.telemetry_tick m;
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 10_000 do
    Machine.telemetry_tick m
  done;
  let a1 = Gc.allocated_bytes () in
  (* allocated_bytes itself boxes its float results; allow that. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-call allocation (%.0f bytes for 10k calls)"
       (a1 -. a0))
    true
    (a1 -. a0 < 512.0)

let () =
  Alcotest.run "telemetry"
    [
      ( "sampler",
        [
          case "counter series deltas and totals" test_counter_series;
          case "series ring bound and eviction count" test_series_ring_bound;
          case "windowed percentiles differ from lifetime"
            test_windowed_vs_lifetime_percentiles;
        ] );
      ( "determinism",
        [
          case "identical runs dump byte-identical series"
            test_series_dump_deterministic;
          case "series JSONL round-trips" test_series_roundtrip;
          case "OpenMetrics exposition shape" test_openmetrics_exposition;
          case "OpenMetrics line syntax, machine registry"
            test_openmetrics_line_syntax;
          case "series header" test_series_header;
        ] );
      ( "engines",
        List.map
          (fun (name, workload) ->
            case (name ^ ": compiled and interpreted registries agree")
              (engines_agree workload))
          [
            ("busmouse", mouse_workload);
            ("IDE PIO", ide_pio_workload);
            ("IDE DMA", ide_dma_workload);
            ("NE2000", net_workload);
            ("8259A", pic_workload);
            ("8237A", dma_workload);
            ("CS4236B", sound_workload);
            ("Permedia2", gfx_workload);
            ("16550 UART", serial_workload);
            ("MC146818", rtc_workload);
            ("i8042", keyboard_workload);
          ] );
      ( "disabled-path",
        [
          case "telemetry_tick without a handle allocates nothing"
            test_disabled_telemetry_tick_allocation_free;
        ] );
    ]
