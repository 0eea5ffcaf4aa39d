let () =
  (* [--pin] prints the table alone, with no timing line, so the output
     is byte-for-byte deterministic — the golden regression under
     test/golden/ diffs it against table1.expected on every runtest. *)
  let pin = Array.exists (String.equal "--pin") Sys.argv in
  let t0 = Unix.gettimeofday () in
  let reports = Mutation.Analysis.table1 () in
  Format.printf "%a" Mutation.Analysis.pp_table1 reports;
  (* Runtime reach of the mutated specifications: Table 1 counts what
     the static checkers catch; the coverage lines below bound what a
     runtime detector could add. A standard driver workload is traced
     against each spec of the table and mapped onto its coverable
     sites (Devil_ir.Sites.universe) — a mutation at a site the
     workload never exercises is invisible to any amount of runtime
     checking, so the covered fraction is the ceiling on dynamic
     detection. Deterministic, hence part of the pinned golden
     output. *)
  let module Trace = Devil_runtime.Trace in
  let module Coverage = Devil_runtime.Coverage in
  let module Machine = Drivers.Machine in
  let trace = Trace.create ~capacity:64 () in
  let covs =
    List.map
      (fun (dev, device) ->
        let c = Coverage.create ~dev device in
        Coverage.attach c trace;
        c)
      [
        ("mouse", Devil_specs.Specs.busmouse ());
        ("ide", Devil_specs.Specs.ide ());
        ("ne2000", Devil_specs.Specs.ne2000 ());
        ("uart", Devil_specs.Specs.uart16550 ());
      ]
  in
  let m = Machine.create ~trace () in
  let mouse = Drivers.Mouse.Devil_driver.create m.mouse_dev in
  ignore (Drivers.Mouse.Devil_driver.read_state mouse);
  let ide =
    Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  Drivers.Ide.Devil_driver.set_features ide 0;
  let data =
    Drivers.Ide.Devil_driver.read_sectors ide ~lba:0 ~count:2 ~mult:1
      ~path:`Block ~width:`W16
  in
  ignore (Drivers.Ide.Devil_driver.read_task_file ide);
  Drivers.Ide.Devil_driver.write_sectors ide ~lba:8 ~count:2 ~mult:1
    ~path:`Block ~width:`W16 data;
  let n = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init_loopback n ~mac:"\x02\x00\x00\x00\x00\x01";
  Drivers.Net.Devil_driver.send n (String.make 64 'x');
  ignore (Drivers.Net.Devil_driver.receive n);
  let u = Drivers.Serial.Devil_driver.create m.uart_dev in
  Drivers.Serial.Devil_driver.init u ~baud:115200;
  ignore (Drivers.Serial.Devil_driver.self_test u);
  Format.printf "@.workload reach over the mutated specifications:@.";
  List.iter
    (fun c -> Format.printf "  %a@." Coverage.pp_report (Coverage.report c))
    covs;
  if not pin then
    Printf.printf "elapsed: %.1fs\n" (Unix.gettimeofday () -. t0)
