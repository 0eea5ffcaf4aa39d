(* {1 Observability: trace + metrics over a mixed driver workload} *)

module Machine = Drivers.Machine

let obs_workload (m : Machine.t) =
  let mouse = Drivers.Mouse.Devil_driver.create m.mouse_dev in
  ignore (Drivers.Mouse.Devil_driver.read_state mouse);
  let ide = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  ignore
    (Drivers.Ide.Devil_driver.read_sectors ide ~lba:0 ~count:1 ~mult:1
       ~path:`Block ~width:`W16);
  let g = Drivers.Gfx.Devil_driver.create m.gfx_dev in
  Drivers.Gfx.Devil_driver.set_depth g 8;
  Drivers.Gfx.Devil_driver.fill_rect g
    { Drivers.Gfx.x = 0; y = 0; w = 10; h = 10 }
    ~color:1;
  let u = Drivers.Serial.Devil_driver.create m.uart_dev in
  Drivers.Serial.Devil_driver.init u ~baud:115200;
  ignore (Drivers.Serial.Devil_driver.self_test u)

(* The spec instances the obs workload touches, paired with the
   instance labels Machine.create hands them. *)
let obs_coverage_devices () =
  [
    ("mouse", Devil_specs.Specs.busmouse ());
    ("ide", Devil_specs.Specs.ide ());
    ("piix4", Devil_specs.Specs.piix4_ide ());
    ("gfx", Devil_specs.Specs.permedia2 ());
    ("uart", Devil_specs.Specs.uart16550 ());
  ]

let run () =
  Common.section "Observability: metrics and trace over a mixed driver workload";
  let trace = Devil_runtime.Trace.create ~capacity:64 () in
  let metrics = Devil_runtime.Metrics.create () in
  let covs =
    List.map
      (fun (dev, device) ->
        let c = Devil_runtime.Coverage.create ~dev device in
        Devil_runtime.Coverage.attach c trace;
        c)
      (obs_coverage_devices ())
  in
  let m = Machine.create ~trace ~metrics () in
  obs_workload m;
  Format.printf "%s@." (Devil_runtime.Metrics.to_json metrics);
  Format.printf "@.spec coverage of the workload:@.";
  List.iter
    (fun c ->
      Format.printf "  %a@." Devil_runtime.Coverage.pp_report
        (Devil_runtime.Coverage.report c))
    covs;
  let sample = Perfmodel.Cost.sample_of_metrics metrics in
  Format.printf
    "@.modeled PIO time for the workload: %.1f us (%d single transfers, %d \
     block elements)@."
    (Perfmodel.Cost.pio_time sample *. 1e6)
    sample.Perfmodel.Cost.singles sample.Perfmodel.Cost.block_items;
  Format.printf "@.trace: %s; last events:@."
    (Devil_runtime.Trace.summary trace);
  let events = Devil_runtime.Trace.events trace in
  let tail =
    let n = List.length events in
    List.filteri (fun i _ -> i >= n - 10) events
  in
  List.iter
    (fun e -> Format.printf "  %a@." Devil_runtime.Trace.pp_event e)
    tail

(* The obs workload's metrics registry as bare JSON on stdout —
   counters and histograms sorted by key, so the output is
   byte-deterministic and pinned as test/golden/obs_metrics.json.
   Any change to what the runtime counts (or to what the drivers do)
   shows up as a reviewable golden diff; accept with `dune promote`. *)
let run_json () =
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  obs_workload m;
  print_string (Devil_runtime.Metrics.to_json metrics);
  print_newline ()
