(* {1 Bechamel micro-benchmarks: one workload per table} *)

module Machine = Drivers.Machine

let run () =
  Common.section "Bechamel micro-benchmarks (one workload per table)";
  let open Bechamel in
  let open Toolkit in
  (* Table 1 workload: verify one mutant of the busmouse spec. *)
  let mutant =
    let src = Devil_specs.Specs.busmouse_source in
    String.concat "index_rag" (String.split_on_char '\t' src) ^ " "
  in
  let t1 =
    Test.make ~name:"table1: check one Devil mutant"
      (Staged.stage (fun () ->
           ignore (Devil_check.Check.compile mutant)))
  in
  (* Table 2 workload: one-sector PIO read through the Devil stubs. *)
  let m = Machine.create () in
  let ide = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let t2 =
    Test.make ~name:"table2: 1-sector PIO read (Devil stubs)"
      (Staged.stage (fun () ->
           ignore
             (Drivers.Ide.Devil_driver.read_sectors ide ~lba:0 ~count:1
                ~mult:1 ~path:`Loop ~width:`W16)))
  in
  (* Table 3 workload: one rectangle fill through the Devil stubs. *)
  let g = Drivers.Gfx.Devil_driver.create m.gfx_dev in
  Drivers.Gfx.Devil_driver.set_depth g 8;
  let t3 =
    Test.make ~name:"table3: 10x10 fill (Devil stubs)"
      (Staged.stage (fun () ->
           Drivers.Gfx.Devil_driver.fill_rect g
             { Drivers.Gfx.x = 0; y = 0; w = 10; h = 10 }
             ~color:1))
  in
  let t4 =
    Test.make ~name:"table4: 10x10 copy (Devil stubs)"
      (Staged.stage (fun () ->
           Drivers.Gfx.Devil_driver.copy_rect g
             { Drivers.Gfx.x = 0; y = 0; w = 10; h = 10 }
             ~dx:16 ~dy:0))
  in
  (* The section 4.3 micro-comparison pair. *)
  let mouse_devil = Drivers.Mouse.Devil_driver.create m.mouse_dev in
  let mouse_hand = Drivers.Mouse.Handcrafted.create m.bus ~base:Machine.mouse_base in
  let t5a =
    Test.make ~name:"micro: mouse state via Devil stubs"
      (Staged.stage (fun () ->
           ignore (Drivers.Mouse.Devil_driver.read_state mouse_devil)))
  in
  let t5b =
    Test.make ~name:"micro: mouse state hand-crafted"
      (Staged.stage (fun () ->
           ignore (Drivers.Mouse.Handcrafted.read_state mouse_hand)))
  in
  let tests = [ t1; t2; t3; t4; t5a; t5b ] in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    results
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Format.printf "%-42s %12.1f ns/run@." name est
          | _ -> Format.printf "%-42s (no estimate)@." name)
        results)
    tests
