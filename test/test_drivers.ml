(* Driver-level tests: the Devil-based and hand-crafted drivers must
   produce identical device outcomes; where the paper quantifies their
   I/O-operation difference, the tests pin the relation down. *)

module Machine = Drivers.Machine

let case name f = Alcotest.test_case name `Quick f

(* {1 Mouse} *)

let test_mouse_equivalence () =
  let m = Machine.create ~debug:true () in
  let devil = Drivers.Mouse.Devil_driver.create m.mouse_dev in
  let hand = Drivers.Mouse.Handcrafted.create m.bus ~base:Machine.mouse_base in
  Alcotest.(check bool) "devil probe" true (Drivers.Mouse.Devil_driver.probe devil);
  Alcotest.(check bool) "hand probe" true (Drivers.Mouse.Handcrafted.probe hand);
  Drivers.Mouse.Devil_driver.init devil;
  let exercise read =
    Hwsim.Busmouse.move m.mouse ~dx:(-7) ~dy:9;
    Hwsim.Busmouse.set_buttons m.mouse 0b011;
    Machine.reset_io_stats m;
    let st = read () in
    (st, Machine.io_ops m)
  in
  let st1, ops1 = exercise (fun () -> Drivers.Mouse.Devil_driver.read_state devil) in
  let st2, ops2 = exercise (fun () -> Drivers.Mouse.Handcrafted.read_state hand) in
  Alcotest.(check int) "dx" st2.Drivers.Mouse.dx st1.Drivers.Mouse.dx;
  Alcotest.(check int) "dy" st2.Drivers.Mouse.dy st1.Drivers.Mouse.dy;
  Alcotest.(check int) "buttons" st2.Drivers.Mouse.buttons st1.Drivers.Mouse.buttons;
  (* The paper's headline: the generated stubs cost the same 8 I/O
     operations as the hand-written macros. *)
  Alcotest.(check int) "devil ops" 8 ops1;
  Alcotest.(check int) "hand ops" 8 ops2

let test_mouse_interrupt_toggle () =
  let m = Machine.create ~debug:true () in
  let devil = Drivers.Mouse.Devil_driver.create m.mouse_dev in
  Drivers.Mouse.Devil_driver.init devil;
  Alcotest.(check bool) "enabled" true (Hwsim.Busmouse.interrupt_enabled m.mouse);
  Drivers.Mouse.Devil_driver.set_interrupts devil false;
  Alcotest.(check bool) "disabled" false (Hwsim.Busmouse.interrupt_enabled m.mouse)

(* {1 IDE} *)

let pattern sectors =
  Bytes.init (sectors * 512) (fun i -> Char.chr ((i * 7) land 0xff))

let test_ide_all_modes_agree () =
  let m = Machine.create () in
  let devil = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let hand =
    Drivers.Ide.Handcrafted.create m.bus ~cmd_base:Machine.ide_base
      ~ctrl_base:Machine.ide_ctrl_base ~bm_base:Machine.piix4_base
      ~prd_base:Machine.piix4_prd_base
  in
  let data = pattern 4 in
  Drivers.Ide.Devil_driver.write_sectors devil ~lba:32 ~count:4 ~mult:1
    ~path:`Block ~width:`W16 data;
  List.iter
    (fun (path, width) ->
      let got =
        Drivers.Ide.Devil_driver.read_sectors devil ~lba:32 ~count:4 ~mult:1
          ~path ~width
      in
      Alcotest.(check bool) "devil read agrees" true (Bytes.equal data got);
      let got2 =
        Drivers.Ide.Handcrafted.read_sectors hand ~lba:32 ~count:4 ~mult:1
          ~path ~width
      in
      Alcotest.(check bool) "hand read agrees" true (Bytes.equal data got2))
    [ (`Loop, `W16); (`Loop, `W32); (`Block, `W16); (`Block, `W32) ]

let test_ide_dma_agree () =
  let m = Machine.create () in
  let devil = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let hand =
    Drivers.Ide.Handcrafted.create m.bus ~cmd_base:Machine.ide_base
      ~ctrl_base:Machine.ide_ctrl_base ~bm_base:Machine.piix4_base
      ~prd_base:Machine.piix4_prd_base
  in
  let data = pattern 2 in
  Drivers.Ide.Devil_driver.write_dma devil
    ~memory:(Hwsim.Piix4.memory m.busmaster) ~lba:64 ~count:2 data;
  let got =
    Drivers.Ide.Handcrafted.read_dma hand
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~lba:64 ~count:2
  in
  Alcotest.(check bool) "dma roundtrip" true (Bytes.equal data got)

let test_ide_setup_cost_shape () =
  (* Paper section 4.3: +3 setup operations and +2 per interrupt for the
     Devil driver in PIO mode. *)
  let run driver =
    let m = Machine.create () in
    Hwsim.Ide_disk.write_sector m.disk ~lba:0 (Bytes.make 512 'x');
    Machine.reset_io_stats m;
    (match driver with
    | `Devil ->
        let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
        ignore
          (Drivers.Ide.Devil_driver.read_sectors d ~lba:0 ~count:1 ~mult:1
             ~path:`Block ~width:`W16)
    | `Hand ->
        let h =
          Drivers.Ide.Handcrafted.create m.bus ~cmd_base:Machine.ide_base
            ~ctrl_base:Machine.ide_ctrl_base ~bm_base:Machine.piix4_base
            ~prd_base:Machine.piix4_prd_base
        in
        ignore
          (Drivers.Ide.Handcrafted.read_sectors h ~lba:0 ~count:1 ~mult:1
             ~path:`Block ~width:`W16));
    Machine.io_ops m
  in
  let devil_ops = run `Devil and hand_ops = run `Hand in
  Alcotest.(check int) "devil adds 5 ops for 1 sector (3 setup + 2 irq)"
    5 (devil_ops - hand_ops)

(* A command carries 1 to 256 sectors and PIO needs at least one sector
   per DRQ block; anything else is refused before the bus sees a
   transfer. The bus refuses to go past 100,000 transfers, so a driver
   that loops on [mult:0] fails here instead of hanging. *)
exception Runaway

let test_ide_refuses_bad_counts () =
  let transfers = ref 0 in
  let limit (bus : Devil_runtime.Bus.t) =
    let tick () =
      incr transfers;
      if !transfers > 100_000 then raise Runaway
    in
    {
      Devil_runtime.Bus.read = (fun ~width ~addr -> tick (); bus.read ~width ~addr);
      write = (fun ~width ~addr ~value -> tick (); bus.write ~width ~addr ~value);
      read_block =
        (fun ~width ~addr ~into -> tick (); bus.read_block ~width ~addr ~into);
      write_block =
        (fun ~width ~addr ~from -> tick (); bus.write_block ~width ~addr ~from);
    }
  in
  let m = Machine.create ~wrap_bus:limit () in
  let module D = Drivers.Ide.Devil_driver in
  let module H = Drivers.Ide.Handcrafted in
  let module A = Drivers.Ide.Async in
  let devil = D.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let hand =
    H.create m.bus ~cmd_base:Machine.ide_base ~ctrl_base:Machine.ide_ctrl_base
      ~bm_base:Machine.piix4_base ~prd_base:Machine.piix4_prd_base
  in
  let memory = Hwsim.Piix4.memory m.busmaster in
  let async =
    A.create ~sched:(Machine.sched m) ~line:Machine.irq_ide ~memory
      ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let data count = Bytes.make (count * 512) 'd' in
  let pio ~count ~mult =
    let c = Printf.sprintf "count %d mult %d" count mult in
    let path = `Block and width = `W16 and lba = 0 in
    [
      ("devil read " ^ c, fun () ->
          ignore (D.read_sectors devil ~lba ~count ~mult ~path ~width));
      ("devil write " ^ c, fun () ->
          D.write_sectors devil ~lba ~count ~mult ~path ~width (data count));
      ("hand read " ^ c, fun () ->
          ignore (H.read_sectors hand ~lba ~count ~mult ~path ~width));
      ("hand write " ^ c, fun () ->
          H.write_sectors hand ~lba ~count ~mult ~path ~width (data count));
    ]
  in
  let dma count =
    let c = Printf.sprintf "count %d" count and lba = 0 in
    [
      ("devil read_dma " ^ c, fun () ->
          ignore (D.read_dma devil ~memory ~lba ~count));
      ("devil write_dma " ^ c, fun () ->
          D.write_dma devil ~memory ~lba ~count (data count));
      ("hand read_dma " ^ c, fun () ->
          ignore (H.read_dma hand ~memory ~lba ~count));
      ("hand write_dma " ^ c, fun () ->
          H.write_dma hand ~memory ~lba ~count (data count));
      ("async read_dma " ^ c, fun () -> ignore (A.read_dma async ~lba ~count ()));
      ("async write_dma " ^ c, fun () ->
          ignore (A.write_dma async ~lba ~count (data count)));
    ]
  in
  List.iter
    (fun (name, f) ->
      Machine.reset_io_stats m;
      transfers := 0;
      (match f () with
      | exception Invalid_argument _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
      | () -> Alcotest.failf "%s: accepted" name);
      Alcotest.(check int) (name ^ ": no transfer") 0 !transfers;
      Alcotest.(check int) (name ^ ": no I/O") 0 (Machine.io_ops m))
    (pio ~count:2 ~mult:0 @ pio ~count:0 ~mult:1 @ pio ~count:257 ~mult:1
   @ dma 0 @ dma 257);
  (* 256 is the largest count, carried as 0. *)
  Hwsim.Ide_disk.set_multiple m.disk 16;
  let big = Bytes.init (256 * 512) (fun i -> Char.chr ((i * 13) land 0xff)) in
  D.write_sectors devil ~lba:1000 ~count:256 ~mult:16 ~path:`Block ~width:`W16 big;
  Alcotest.(check bool) "256 sectors round trip" true
    (Bytes.equal big
       (H.read_sectors hand ~lba:1000 ~count:256 ~mult:16 ~path:`Block
          ~width:`W32))

(* Words allocated per call of [f], over [n] calls after [n] to warm up. *)
let words_per_call n f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  for _ = 1 to n do f () done;
  let w0 = words () in
  for _ = 1 to n do f () done;
  (words () -. w0) /. float_of_int n

(* An op allocates its stub array and, on reads, its result: going from
   one sector to eight adds 7 x 256 elements to the first and
   7 x 512 bytes to the second (1,792 + 448 words), and nothing that
   grows with the sectors in between. *)
let test_ide_pio_allocation () =
  let m = Machine.create () in
  Hwsim.Ide_disk.set_multiple m.disk 8;
  let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let data = pattern 8 and one = pattern 1 in
  let read count () =
    ignore
      (Drivers.Ide.Devil_driver.read_sectors d ~lba:64 ~count ~mult:8
         ~path:`Block ~width:`W16)
  in
  let write data count () =
    Drivers.Ide.Devil_driver.write_sectors d ~lba:64 ~count ~mult:8
      ~path:`Block ~width:`W16 data
  in
  let extra name eight one =
    let w8 = words_per_call 2000 eight and w1 = words_per_call 2000 one in
    Alcotest.(check bool)
      (Printf.sprintf "%s: 8 sectors %.0f words, 1 sector %.0f: %.0f more"
         name w8 w1 (w8 -. w1))
      true
      (w8 -. w1 <= 2600.)
  in
  extra "read" (read 8) (read 1);
  extra "write" (write data 8) (write one 1)

(* {1 NE2000} *)

let test_net_loopback_both_drivers () =
  let mac = "\x02\x00\x00\x00\x00\x07" in
  let payload = "The quick brown fox jumps over the lazy dog" in
  let run_devil () =
    let m = Machine.create () in
    let d = Drivers.Net.Devil_driver.create m.ne2000_dev in
    Drivers.Net.Devil_driver.init_loopback d ~mac;
    Drivers.Net.Devil_driver.send d payload;
    Drivers.Net.Devil_driver.receive d
  in
  let run_hand () =
    let m = Machine.create () in
    let h = Drivers.Net.Handcrafted.create m.bus ~base:Machine.ne2000_base in
    Drivers.Net.Handcrafted.init_loopback h ~mac;
    Drivers.Net.Handcrafted.send h payload;
    Drivers.Net.Handcrafted.receive h
  in
  Alcotest.(check (option string)) "devil" (Some payload) (run_devil ());
  Alcotest.(check (option string)) "hand" (Some payload) (run_hand ())

let test_net_station_address () =
  let mac = "\x0a\x0b\x0c\x0d\x0e\x0f" in
  let m = Machine.create () in
  let d = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init d ~mac;
  Alcotest.(check string) "readback" mac (Drivers.Net.Devil_driver.station_address d)

let test_net_ring_wrap () =
  (* Enough frames to wrap the receive ring at pstop. *)
  let m = Machine.create () in
  let d = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init d ~mac:"\x02\x00\x00\x00\x00\x01";
  let frame i = Printf.sprintf "frame-%04d-%s" i (String.make 400 'p') in
  let received = ref 0 in
  for round = 0 to 40 do
    assert (Hwsim.Ne2000.inject_frame m.nic (frame round));
    match Drivers.Net.Devil_driver.receive d with
    | Some f ->
        Alcotest.(check string) "in order" (frame round) f;
        incr received
    | None -> Alcotest.fail "lost a frame"
  done;
  Alcotest.(check int) "all received" 41 !received

(* {1 PIC} *)

let test_pic_drivers_agree () =
  let run init_driver read_mask =
    let m = Machine.create () in
    init_driver m;
    (Hwsim.Pic8259.initialized m.pic, Hwsim.Pic8259.vector_base m.pic, read_mask m)
  in
  let devil =
    run
      (fun m ->
        let d = Drivers.Pic_driver.Devil_driver.create m.pic_dev in
        Drivers.Pic_driver.Devil_driver.init d ~vector_base:0x20 ~single:false
          ~with_icw4:true ~cascade_map:0x04;
        Drivers.Pic_driver.Devil_driver.set_mask d 0xab)
      (fun m ->
        Drivers.Pic_driver.Devil_driver.read_mask
          (Drivers.Pic_driver.Devil_driver.create m.pic_dev))
  in
  let hand =
    run
      (fun m ->
        let h = Drivers.Pic_driver.Handcrafted.create m.bus ~base:Machine.pic_base in
        Drivers.Pic_driver.Handcrafted.init h ~vector_base:0x20 ~single:false
          ~with_icw4:true ~cascade_map:0x04;
        Drivers.Pic_driver.Handcrafted.set_mask h 0xab)
      (fun m ->
        Drivers.Pic_driver.Handcrafted.read_mask
          (Drivers.Pic_driver.Handcrafted.create m.bus ~base:Machine.pic_base))
  in
  Alcotest.(check bool) "same state" true (devil = hand)

let test_pic_eoi_cycle () =
  let m = Machine.create () in
  let d = Drivers.Pic_driver.Devil_driver.create m.pic_dev in
  Drivers.Pic_driver.Devil_driver.init d ~vector_base:0x20 ~single:false
    ~with_icw4:true ~cascade_map:0x04;
  Drivers.Pic_driver.Devil_driver.set_mask d 0x00;
  Hwsim.Pic8259.raise_irq m.pic ~line:6;
  Alcotest.(check (option int)) "vector" (Some 0x26) (Hwsim.Pic8259.inta m.pic);
  Alcotest.(check int) "in service" 0x40 (Drivers.Pic_driver.Devil_driver.in_service d);
  Drivers.Pic_driver.Devil_driver.specific_eoi d ~line:6;
  Alcotest.(check int) "retired" 0x00 (Drivers.Pic_driver.Devil_driver.in_service d)

(* {1 8237 DMA} *)

let test_dma_drivers_agree () =
  let program create_and_program readback =
    let m = Machine.create () in
    create_and_program m;
    ( Hwsim.Dma8237.programmed_address m.dma ~channel:2,
      Hwsim.Dma8237.programmed_count m.dma ~channel:2,
      Hwsim.Dma8237.channel_masked m.dma ~channel:2,
      readback m )
  in
  let devil =
    program
      (fun m ->
        let d = Drivers.Dma_driver.Devil_driver.create m.dma_dev in
        Drivers.Dma_driver.Devil_driver.master_clear d;
        Drivers.Dma_driver.Devil_driver.program_channel d ~channel:2
          ~address:0x2345 ~count:511 ~transfer:Drivers.Dma_driver.Write_memory
          ~mode:Drivers.Dma_driver.Single ~auto_init:false)
      (fun _ -> 0)
  in
  let hand =
    program
      (fun m ->
        let h = Drivers.Dma_driver.Handcrafted.create m.bus ~base:Machine.dma_base in
        Drivers.Dma_driver.Handcrafted.master_clear h;
        Drivers.Dma_driver.Handcrafted.program_channel h ~channel:2
          ~address:0x2345 ~count:511 ~transfer:Drivers.Dma_driver.Write_memory
          ~mode:Drivers.Dma_driver.Single ~auto_init:false)
      (fun _ -> 0)
  in
  Alcotest.(check bool) "same programming" true (devil = hand);
  let addr, count, masked, _ = devil in
  Alcotest.(check int) "address" 0x2345 addr;
  Alcotest.(check int) "count" 511 count;
  Alcotest.(check bool) "unmasked" false masked

let test_dma_transfer_through_devil_programming () =
  let m = Machine.create () in
  let d = Drivers.Dma_driver.Devil_driver.create m.dma_dev in
  Drivers.Dma_driver.Devil_driver.master_clear d;
  Drivers.Dma_driver.Devil_driver.program_channel d ~channel:1 ~address:0x80
    ~count:7 ~transfer:Drivers.Dma_driver.Write_memory
    ~mode:Drivers.Dma_driver.Single ~auto_init:false;
  let moved =
    Hwsim.Dma8237.device_request m.dma ~channel:1
      ~data:(Bytes.of_string "8 bytes!") Hwsim.Dma8237.To_memory
  in
  Alcotest.(check int) "moved" 8 moved;
  Alcotest.(check string) "landed" "8 bytes!"
    (Bytes.sub_string (Hwsim.Dma8237.memory m.dma) 0x80 8);
  Alcotest.(check bool) "tc seen through devil" true
    (Drivers.Dma_driver.Devil_driver.terminal_count_reached d 1)

(* {1 Sound} *)

let test_sound_drivers_agree () =
  let run setup inspect =
    let m = Machine.create () in
    setup m;
    inspect m
  in
  let inspect m =
    ( Hwsim.Cs4236b.indexed_reg m.Machine.sound 6,
      Hwsim.Cs4236b.indexed_reg m.Machine.sound 7,
      Hwsim.Cs4236b.extended_reg m.Machine.sound 2 )
  in
  let devil =
    run
      (fun m ->
        let d = Drivers.Sound.Devil_driver.create m.sound_dev in
        Drivers.Sound.Devil_driver.set_volume d ~left:20 ~right:30;
        Drivers.Sound.Devil_driver.line_gain d 11;
        Alcotest.(check int) "version" Hwsim.Cs4236b.chip_version
          (Drivers.Sound.Devil_driver.chip_version d))
      inspect
  in
  let hand =
    run
      (fun m ->
        let h = Drivers.Sound.Handcrafted.create m.bus ~base:Machine.sound_base in
        Drivers.Sound.Handcrafted.set_volume h ~left:20 ~right:30;
        Drivers.Sound.Handcrafted.line_gain h 11;
        Alcotest.(check int) "version" Hwsim.Cs4236b.chip_version
          (Drivers.Sound.Handcrafted.chip_version h))
      inspect
  in
  Alcotest.(check bool) "same chip state" true (devil = hand)

(* {1 Graphics} *)

let test_gfx_drivers_agree () =
  let scene driver m =
    (match driver with
    | `Devil ->
        let d = Drivers.Gfx.Devil_driver.create m.Machine.gfx_dev in
        Drivers.Gfx.Devil_driver.set_depth d 8;
        Drivers.Gfx.Devil_driver.fill_rect d { x = 2; y = 2; w = 10; h = 6 } ~color:3;
        Drivers.Gfx.Devil_driver.copy_rect d { x = 20; y = 2; w = 10; h = 6 } ~dx:18 ~dy:0;
        Drivers.Gfx.Devil_driver.sync d
    | `Hand ->
        let h = Drivers.Gfx.Handcrafted.create m.Machine.bus ~mmio_base:Machine.gfx_mmio_base in
        Drivers.Gfx.Handcrafted.set_depth h 8;
        Drivers.Gfx.Handcrafted.fill_rect h { x = 2; y = 2; w = 10; h = 6 } ~color:3;
        Drivers.Gfx.Handcrafted.copy_rect h { x = 20; y = 2; w = 10; h = 6 } ~dx:18 ~dy:0;
        Drivers.Gfx.Handcrafted.sync h);
    List.init 40 (fun x -> List.init 10 (fun y -> Hwsim.Permedia2.pixel m.Machine.gfx ~x ~y))
  in
  let m1 = Machine.create () and m2 = Machine.create () in
  Alcotest.(check bool) "same framebuffer" true (scene `Devil m1 = scene `Hand m2);
  Alcotest.(check int) "fill visible" 3 (Hwsim.Permedia2.pixel m1.gfx ~x:5 ~y:4);
  Alcotest.(check int) "copy visible" 3 (Hwsim.Permedia2.pixel m1.gfx ~x:25 ~y:4)

let test_gfx_op_cost_rule () =
  (* +2 operations per primitive at 8/16/32 bpp; parity at 24 bpp. *)
  let ops driver depth =
    let m = Machine.create () in
    (match driver with
    | `Devil ->
        let d = Drivers.Gfx.Devil_driver.create m.Machine.gfx_dev in
        Drivers.Gfx.Devil_driver.set_depth d depth;
        Machine.reset_io_stats m;
        Drivers.Gfx.Devil_driver.fill_rect d { x = 0; y = 0; w = 2; h = 2 } ~color:1
    | `Hand ->
        let h = Drivers.Gfx.Handcrafted.create m.Machine.bus ~mmio_base:Machine.gfx_mmio_base in
        Drivers.Gfx.Handcrafted.set_depth h depth;
        Machine.reset_io_stats m;
        Drivers.Gfx.Handcrafted.fill_rect h { x = 0; y = 0; w = 2; h = 2 } ~color:1);
    Machine.io_ops m
  in
  Alcotest.(check int) "8bpp: +2" 2 (ops `Devil 8 - ops `Hand 8);
  Alcotest.(check int) "32bpp: +2" 2 (ops `Devil 32 - ops `Hand 32);
  Alcotest.(check int) "24bpp: parity" 0 (ops `Devil 24 - ops `Hand 24)

(* Without [sync] between primitives the engine lags and the FIFO
   fills up; a driver that reserves fewer entries than it writes then
   loses writes to the full FIFO. At 32 bpp the Devil driver writes
   the rectangle as four independent variables (plus the copy vector),
   so it must reserve that many. The 32 bpp primitives here queue
   behind 24 bpp ones, whose shorter entry groups leave the FIFO with
   too little room as often as not. *)
let test_gfx_unsynced_no_overflow () =
  let run ~set_depth ~fill ~copy =
    let rng = Random.State.make [| 32 |] in
    for k = 0 to 1999 do
      if k mod 8 = 0 then set_depth (if k mod 16 = 0 then 24 else 32);
      let w = 2 + Random.State.int rng 9 and h = 2 + Random.State.int rng 9 in
      let r =
        { Drivers.Gfx.x = Random.State.int rng 900; y = Random.State.int rng 700; w; h }
      in
      if k mod 3 = 2 then copy r else fill r
    done
  in
  let m1 = Machine.create () and m2 = Machine.create () in
  let d = Drivers.Gfx.Devil_driver.create m1.Machine.gfx_dev in
  run
    ~set_depth:(Drivers.Gfx.Devil_driver.set_depth d)
    ~fill:(fun r -> Drivers.Gfx.Devil_driver.fill_rect d r ~color:0xabcdef)
    ~copy:(fun r -> Drivers.Gfx.Devil_driver.copy_rect d r ~dx:5 ~dy:(-3));
  let h = Drivers.Gfx.Handcrafted.create m2.Machine.bus ~mmio_base:Machine.gfx_mmio_base in
  run
    ~set_depth:(Drivers.Gfx.Handcrafted.set_depth h)
    ~fill:(fun r -> Drivers.Gfx.Handcrafted.fill_rect h r ~color:0xabcdef)
    ~copy:(fun r -> Drivers.Gfx.Handcrafted.copy_rect h r ~dx:5 ~dy:(-3));
  Alcotest.(check int) "hand-written driver drops no write" 0
    (Hwsim.Permedia2.overflows m2.gfx);
  Alcotest.(check int) "Devil driver drops no write" 0
    (Hwsim.Permedia2.overflows m1.gfx)

let () =
  Alcotest.run "drivers"
    [
      ( "mouse",
        [
          case "state and op-count equivalence" test_mouse_equivalence;
          case "interrupt toggle" test_mouse_interrupt_toggle;
        ] );
      ( "ide",
        [
          case "all PIO modes agree" test_ide_all_modes_agree;
          case "dma agrees" test_ide_dma_agree;
          case "setup cost (+3, +2/irq)" test_ide_setup_cost_shape;
          case "bad counts refused before any transfer"
            test_ide_refuses_bad_counts;
          case "per-op allocation is the stub array and result"
            test_ide_pio_allocation;
        ] );
      ( "ne2000",
        [
          case "loopback, both drivers" test_net_loopback_both_drivers;
          case "station address" test_net_station_address;
          case "receive ring wrap" test_net_ring_wrap;
        ] );
      ( "pic",
        [
          case "drivers agree" test_pic_drivers_agree;
          case "eoi cycle" test_pic_eoi_cycle;
        ] );
      ( "dma",
        [
          case "drivers agree" test_dma_drivers_agree;
          case "transfer after devil programming" test_dma_transfer_through_devil_programming;
        ] );
      ("sound", [ case "drivers agree" test_sound_drivers_agree ]);
      ( "gfx",
        [
          case "drivers agree" test_gfx_drivers_agree;
          case "+2/-0 op rule" test_gfx_op_cost_rule;
          case "unsynchronised 24/32 bpp: no FIFO overflow"
            test_gfx_unsynced_no_overflow;
        ] );
    ]
