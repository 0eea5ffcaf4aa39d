(* Floors: tight loops on a warmed machine that call one layer directly,
   so that counts times unit costs can be set against traced self
   times. Each figure is the median over timed batches. The access
   floors use the UART: its registers have no side effects that would
   build up over millions of calls. *)

module M = Drivers.Machine
module Instance = Devil_runtime.Instance
module Value = Devil_ir.Value

let per_call ~iters f = Harness.per_call ~samples:15 ~iters f

(* The machine's instances, as [Machine.create] binds them. *)
let instances () =
  let open Devil_specs.Specs in
  [
    ("mouse", busmouse (), [ ("base", M.mouse_base) ]);
    ( "ide",
      ide (),
      [ ("data", M.ide_base); ("cmd", M.ide_base); ("ctrl", M.ide_ctrl_base) ]
    );
    ("piix4", piix4_ide (), [ ("bm", M.piix4_base); ("prd", M.piix4_prd_base) ]);
    ("ne2000", ne2000 (), [ ("base", M.ne2000_base) ]);
    ("dma", dma8237 (), [ ("base", M.dma_base) ]);
    ("pic", pic8259 ~master:true (), [ ("base", M.pic_base) ]);
    ("sound", cs4236b (), [ ("base", M.sound_base) ]);
    ("gfx", permedia2 (), [ ("mmio", M.gfx_mmio_base); ("fb", M.gfx_fb_base) ]);
    ("uart", uart16550 (), [ ("base", M.uart_base) ]);
    ("rtc", mc146818 (), [ ("idx", M.rtc_index_base); ("data", M.rtc_data_base) ]);
    ("kbd", i8042 (), [ ("data", M.kbd_data_base); ("ctl", M.kbd_ctl_base) ]);
  ]

let run () =
  let m = M.create () in
  let uart = Hwsim.Uart16550.create () in
  let model = Hwsim.Uart16550.model uart in
  let lcr = 3 in
  let block = Array.make 64 0x55 in
  let parity = Instance.handle m.uart_dev "parity_mode" in
  let five = Value.Int 5 in
  let noop () = () in
  [
    ( "model.read_ns",
      per_call ~iters:20_000 (fun () ->
          ignore (model.read ~width:8 ~offset:lcr)) );
    ( "bus.read_ns",
      per_call ~iters:20_000 (fun () ->
          ignore (m.bus.read ~width:8 ~addr:(M.uart_base + lcr))) );
    ( "model.block64_ns",
      per_call ~iters:1_000 (fun () ->
          Array.iter (fun value -> model.write ~width:8 ~offset:0 ~value) block;
          ignore (Hwsim.Uart16550.take_transmitted uart)) );
    ( "bus.block64_ns",
      per_call ~iters:1_000 (fun () ->
          m.bus.write_block ~width:8 ~addr:M.uart_base ~from:block;
          ignore (Hwsim.Uart16550.take_transmitted m.uart)) );
    ( "stub.get_h_ns",
      per_call ~iters:20_000 (fun () ->
          ignore (Instance.get_h m.uart_dev parity)) );
    ( "stub.set_h_ns",
      per_call ~iters:10_000 (fun () -> Instance.set_h m.uart_dev parity five) );
    ( "stub.set_ns",
      per_call ~iters:10_000 (fun () ->
          Instance.set m.uart_dev "parity_mode" five) );
    ( "stub.write_block64_ns",
      per_call ~iters:1_000 (fun () ->
          Instance.write_block m.uart_dev "tx_data" block;
          ignore (Hwsim.Uart16550.take_transmitted m.uart)) );
    ( "policy.guarded_ns",
      per_call ~iters:20_000 (fun () ->
          Devil_runtime.Policy.guarded ~label:"floor" (fun () ->
              Devil_runtime.Policy.with_retries ~label:"floor" noop)) );
    ( "machine.create_us",
      (* The first machines grow the heap; time the ones after. *)
      (for _ = 1 to 8 do
         ignore (M.create ())
       done;
       Harness.per_call ~samples:9 ~iters:1 (fun () -> ignore (M.create ())))
      /. 1e3 );
    ( "plan.compile_us",
      Harness.per_call ~samples:9 ~iters:1 (fun () ->
          List.iter
            (fun (label, device, bases) ->
              ignore (Devil_runtime.Plan.compile ~label device ~bus:m.bus ~bases))
            (instances ()))
      /. 1e3 );
    ( "front.compile_us",
      Harness.per_call ~samples:5 ~iters:1 Harness.compile_specs /. 1e3 );
  ]
