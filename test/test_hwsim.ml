(* Tests for the behavioural device models (Hwsim). *)

module Io_space = Hwsim.Io_space

let case name f = Alcotest.test_case name `Quick f

let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* {1 I/O space} *)

let test_io_space_dispatch () =
  let space = Io_space.create () in
  Io_space.attach space ~base:0x100 ~size:4 (Hwsim.Model.ram ~name:"a" ~size:4);
  Io_space.attach space ~base:0x200 ~size:4 (Hwsim.Model.ram ~name:"b" ~size:4);
  let bus = Io_space.bus space in
  bus.Devil_runtime.Bus.write ~width:8 ~addr:0x101 ~value:0x42;
  Alcotest.(check int) "routed" 0x42 (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x101);
  Alcotest.(check int) "isolated" 0 (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x201);
  Alcotest.(check int) "ops counted" 3 (Io_space.io_ops space);
  (match bus.Devil_runtime.Bus.read ~width:8 ~addr:0x300 with
  | exception Devil_runtime.Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "bus fault not raised");
  (match Io_space.attach space ~base:0x102 ~size:4 (Hwsim.Model.ram ~name:"c" ~size:4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping attach accepted");
  (* An empty or negative claim at a real region's base, or inside it,
     would otherwise sort next to it and could hide it from decode. *)
  List.iter
    (fun (base, size) ->
      match Io_space.attach space ~base ~size (Hwsim.Model.ram ~name:"e" ~size:1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "attach of size %d at %#x accepted" size base)
    [ (0x100, 0); (0x202, -1); (0x300, 0) ];
  Alcotest.(check int) "still routed" 0x42 (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x101)

let test_io_space_blocks () =
  let space = Io_space.create () in
  Io_space.attach space ~base:0 ~size:1 (Hwsim.Model.ram ~name:"r" ~size:1);
  (* Logs every model call; reads answer a running count, so the order
     of the calls shows in the data. *)
  let calls = ref [] and count = ref 0 in
  Io_space.attach space ~base:0x40 ~size:4
    {
      Hwsim.Model.name = "recorder";
      read =
        (fun ~width ~offset ->
          incr count;
          calls := (`R, width, offset, !count) :: !calls;
          !count);
      write =
        (fun ~width ~offset ~value ->
          calls := (`W, width, offset, value) :: !calls);
      block = None;
    };
  let bus = Io_space.bus space in
  bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0 ~from:[| 1; 2; 3 |];
  let into = Array.make 2 0 in
  bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0 ~into;
  let stats = Io_space.stats space in
  Alcotest.(check int) "block ops" 2 stats.Io_space.block_ops;
  Alcotest.(check int) "block items" 5 stats.Io_space.block_items;
  Alcotest.(check int) "io ops" 5 (Io_space.io_ops space);
  Alcotest.(check int) "singles" 0 (Io_space.single_ops space);
  (* n elements are n model calls, in order, at one offset and width. *)
  bus.Devil_runtime.Bus.write_block ~width:16 ~addr:0x42 ~from:[| 7; 8; 9 |];
  let into = Array.make 4 0 in
  bus.Devil_runtime.Bus.read_block ~width:16 ~addr:0x42 ~into;
  Alcotest.(check (array int)) "reads in order" [| 1; 2; 3; 4 |] into;
  Alcotest.(check bool) "one model call per element" true
    (List.rev !calls
    = [
        (`W, 16, 2, 7); (`W, 16, 2, 8); (`W, 16, 2, 9);
        (`R, 16, 2, 1); (`R, 16, 2, 2); (`R, 16, 2, 3); (`R, 16, 2, 4);
      ]);
  (* An empty block decodes nothing, so it cannot fault; it still
     counts as a block instruction. *)
  Io_space.reset_stats space;
  bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0x300 ~into:[||];
  Alcotest.(check int) "empty block op" 1 stats.Io_space.block_ops;
  Alcotest.(check int) "empty block items" 0 stats.Io_space.block_items;
  bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0x300 ~from:[||];
  (match bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0x300 ~into:[| 0 |] with
  | exception Devil_runtime.Instance.Device_error _ -> ()
  | () -> Alcotest.fail "unmapped read_block accepted");
  match bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0x300 ~from:[| 0 |] with
  | exception Devil_runtime.Instance.Device_error _ -> ()
  | () -> Alcotest.fail "unmapped write_block accepted"

(* A transfer allocates nothing in the bus: its cost is its decode and
   its model's. *)
let test_io_space_allocation_free () =
  let space = Io_space.create () in
  for k = 0 to 15 do
    Io_space.attach space ~base:(0x100 * k) ~size:8
      (Hwsim.Model.ram ~name:(string_of_int k) ~size:8)
  done;
  let bus = Io_space.bus space in
  let block = Array.make 2048 0 in
  let a0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    let addr = (0x100 * (i land 15)) + (i land 7) in
    bus.Devil_runtime.Bus.write ~width:16 ~addr ~value:i;
    ignore (bus.Devil_runtime.Bus.read ~width:16 ~addr)
  done;
  bus.Devil_runtime.Bus.read_block ~width:16 ~addr:0xf00 ~into:block;
  bus.Devil_runtime.Bus.write_block ~width:16 ~addr:0xf04 ~from:block;
  let a1 = Gc.allocated_bytes () in
  (* allocated_bytes itself boxes its float results; allow that. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-transfer allocation (%.0f bytes)" (a1 -. a0))
    true
    (a1 -. a0 < 512.0)

(* Random layouts: up to ten regions in the port space and up to ten
   from 0xd000_0000 up, sizes 1-64, half of the neighbours adjacent and
   the rest 1-8 apart; attached in a random order, the first [early]
   before the bus is taken and the rest after; then an attach that
   overlaps one region ([clash]). *)
type layout = {
  regions : (int * int) array;
  order : int array;
  early : int;
  clash : int * int * int;
}

let layout_gen =
  let open QCheck.Gen in
  let zone start =
    start >>= fun start ->
    list_size (int_bound 10)
      (pair (oneof [ return 0; int_range 1 8 ]) (int_range 1 64))
    >|= fun segments ->
    let cursor = ref start in
    List.map
      (fun (gap, size) ->
        let base = !cursor + gap in
        cursor := base + size;
        (base, size))
      segments
  in
  zone (oneof [ return 0; int_bound 0xf000 ]) >>= fun ports ->
  zone (map (( + ) 0xd000_0000) (int_bound 0x1000_0000)) >>= fun mmio ->
  let regions = Array.of_list (ports @ mmio) in
  let n = Array.length regions in
  let order = Array.init n Fun.id in
  shuffle_a order >>= fun () ->
  int_bound n >>= fun early ->
  triple (int_bound 1000) (int_range 1 64) (int_bound 1000) >|= fun clash ->
  { regions; order; early; clash }

let print_layout l =
  Printf.sprintf "regions [%s] order [%s] early %d"
    (String.concat "; "
       (Array.to_list
          (Array.map (fun (b, s) -> Printf.sprintf "%#x+%d" b s) l.regions)))
    (String.concat "; " (Array.to_list (Array.map string_of_int l.order)))
    l.early

let prop_decode =
  QCheck.Test.make ~name:"decode matches a linear scan" ~count:200
    (QCheck.make ~print:print_layout layout_gen)
    (fun l ->
      let space = Io_space.create () in
      (* Region [i]'s model answers a read with [i * 64 + offset] and
         records the last write. *)
      let last_write = ref None in
      let attach i =
        let base, size = l.regions.(i) in
        Io_space.attach space ~base ~size
          {
            Hwsim.Model.name = string_of_int i;
            read = (fun ~width:_ ~offset -> (i * 64) + offset);
            write =
              (fun ~width:_ ~offset ~value ->
                last_write := Some (i, offset, value));
            block = None;
          }
      in
      Array.iteri (fun k i -> if k < l.early then attach i) l.order;
      let bus = Io_space.bus space in
      Array.iteri (fun k i -> if k >= l.early then attach i) l.order;
      let n = Array.length l.regions in
      let refused =
        n = 0
        ||
        let pick, size, shift = l.clash in
        let base, victim = l.regions.(pick mod n) in
        (* [base - size + 1 .. base + victim - 1] all overlap the victim. *)
        let base = base - size + 1 + (shift mod (victim + size - 1)) in
        match
          Io_space.attach space ~base ~size (Hwsim.Model.ram ~name:"x" ~size)
        with
        | exception Invalid_argument _ -> true
        | () -> false
      in
      let reference addr =
        let hit = ref None in
        Array.iteri
          (fun i (base, size) ->
            if addr >= base && addr < base + size then
              hit := Some (i, addr - base))
          l.regions;
        !hit
      in
      let faults addr f =
        match f () with
        | exception Devil_runtime.Instance.Device_error m ->
            m = Printf.sprintf "bus fault: no device at address %#x" addr
        | _ -> false
      in
      let probe addr =
        match reference addr with
        | Some (i, offset) ->
            bus.Devil_runtime.Bus.read ~width:8 ~addr = (i * 64) + offset
            && (bus.Devil_runtime.Bus.write ~width:8 ~addr ~value:addr;
                !last_write = Some (i, offset, addr))
        | None ->
            faults addr (fun () -> bus.Devil_runtime.Bus.read ~width:8 ~addr)
            && faults addr (fun () ->
                   bus.Devil_runtime.Bus.write ~width:8 ~addr ~value:0)
      in
      (* Every gap is at most 8 wide, so probing 9 below and past each
         region covers every mapped address, every gap, the address
         below the first region and the one past the last. *)
      let ok = ref refused in
      Array.iter
        (fun (base, size) ->
          for addr = base - 9 to base + size + 8 do
            if not (probe addr) then ok := false
          done)
        l.regions;
      !ok
      && List.for_all probe [ 0; 0xffff; 0x1_0000; 0xcfff_ffff; 0xd000_0000 ])

(* {1 Busmouse} *)

let test_busmouse_cycle () =
  let m = Hwsim.Busmouse.create () in
  let model = Hwsim.Busmouse.model m in
  let rd off = model.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Hwsim.Busmouse.move m ~dx:5 ~dy:(-3);
  Hwsim.Busmouse.set_buttons m 0b101;
  let nibble i =
    wr 2 (0x80 lor (i lsl 5));
    rd 0
  in
  let dx = nibble 0 lor (nibble 1 lsl 4) in
  let y3 = nibble 3 in
  let dy = nibble 2 lor ((y3 land 0xf) lsl 4) in
  Alcotest.(check int) "dx" 5 dx;
  Alcotest.(check int) "dy" 0xfd dy;
  Alcotest.(check int) "buttons" 0b101 (y3 lsr 5);
  (* The cycle completion cleared the counters. *)
  Alcotest.(check int) "cleared" 0 (nibble 0 lor (nibble 1 lsl 4))

let test_busmouse_control_decode () =
  let m = Hwsim.Busmouse.create () in
  let model = Hwsim.Busmouse.model m in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 2 0x00;
  Alcotest.(check bool) "irq on" true (Hwsim.Busmouse.interrupt_enabled m);
  wr 2 0x10;
  Alcotest.(check bool) "irq off" false (Hwsim.Busmouse.interrupt_enabled m);
  wr 2 0xe0;  (* index write: must not touch the irq flag *)
  Alcotest.(check bool) "irq unchanged" false (Hwsim.Busmouse.interrupt_enabled m);
  wr 3 0x90;
  Alcotest.(check int) "config" 0x90 (Hwsim.Busmouse.config_byte m)

let test_busmouse_clamp () =
  let m = Hwsim.Busmouse.create () in
  Hwsim.Busmouse.move m ~dx:200 ~dy:(-300);
  Hwsim.Busmouse.move m ~dx:100 ~dy:(-100);
  (* Saturates at the signed 8-bit bounds rather than wrapping. *)
  let model = Hwsim.Busmouse.model m in
  let rd off = model.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  let nibble i = wr 2 (0x80 lor (i lsl 5)); rd 0 in
  let dx = nibble 0 lor (nibble 1 lsl 4) in
  Alcotest.(check int) "saturated" 127 dx

(* {1 IDE disk} *)

let test_ide_pio_roundtrip () =
  let d = Hwsim.Ide_disk.create () in
  let m = Hwsim.Ide_disk.command_model d in
  let rd off = m.Hwsim.Model.read ~width:16 ~offset:off in
  let rd8 off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  let wr off v = m.Hwsim.Model.write ~width:16 ~offset:off ~value:v in
  (* write one sector at LBA 5 *)
  wr8 2 1; wr8 3 5; wr8 4 0; wr8 5 0; wr8 6 0xe0;
  wr8 7 0x30;
  for i = 0 to 255 do
    wr 0 (i * 3)
  done;
  Alcotest.(check bool) "irq after write" true (Hwsim.Ide_disk.take_irq d);
  (* read it back *)
  wr8 2 1; wr8 3 5; wr8 7 0x20;
  Alcotest.(check bool) "irq after read cmd" true (Hwsim.Ide_disk.irq_pending d);
  let st = rd8 7 in
  Alcotest.(check bool) "drq" true (st land 0x08 <> 0);
  Alcotest.(check bool) "irq acked by status read" false (Hwsim.Ide_disk.irq_pending d);
  let ok = ref true in
  for i = 0 to 255 do
    if rd 0 <> (i * 3) land 0xffff then ok := false
  done;
  Alcotest.(check bool) "data" true !ok;
  Alcotest.(check bool) "drq clear" true (rd8 7 land 0x08 = 0)

let test_ide_multi_sector_irqs () =
  let d = Hwsim.Ide_disk.create () in
  Hwsim.Ide_disk.set_multiple d 4;
  let m = Hwsim.Ide_disk.command_model d in
  let rd off = m.Hwsim.Model.read ~width:16 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Hwsim.Ide_disk.reset_irq_count d;
  wr8 2 8; wr8 3 0; wr8 7 0x20;
  for _ = 1 to 8 * 256 do
    ignore (rd 0)
  done;
  (* 8 sectors at 4 per DRQ block: 2 interrupts. *)
  Alcotest.(check int) "irqs" 2 (Hwsim.Ide_disk.irq_count d)

let test_ide_dma_handshake () =
  let d = Hwsim.Ide_disk.create () in
  Hwsim.Ide_disk.write_sector d ~lba:9 (Bytes.make 512 'z');
  let m = Hwsim.Ide_disk.command_model d in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr8 2 1; wr8 3 9; wr8 7 0xc8;
  (match Hwsim.Ide_disk.dma_read_pending d with
  | Some (9, 1) -> ()
  | _ -> Alcotest.fail "dma not pending");
  Hwsim.Ide_disk.dma_complete d;
  Alcotest.(check bool) "irq" true (Hwsim.Ide_disk.take_irq d);
  Alcotest.(check bool) "idle" true (Hwsim.Ide_disk.dma_read_pending d = None)

let test_ide_abort_unknown_command () =
  let d = Hwsim.Ide_disk.create () in
  let m = Hwsim.Ide_disk.command_model d in
  let rd8 off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr8 7 0x99;
  Alcotest.(check bool) "error bit" true (rd8 7 land 0x01 <> 0);
  Alcotest.(check int) "abort code" 0x04 (rd8 1)

(* The data port's block op against the per-element path: two disks
   with the same sectors, one attached with its block op and one
   without, run the same bus script through the same fault plan. Every
   element, every interrupt, the status, the bus counts and the sectors
   must agree. *)
type ide_step =
  | Command of int * int * int  (* command, LBA, sector count *)
  | Multiple of int
  | Read_block of int * int  (* width, elements *)
  | Write_block of int * int * int  (* width, elements, data seed *)
  | Read of int
  | Write of int * int
  | Status
  | Reset

let print_ide_step = function
  | Command (c, lba, n) -> Printf.sprintf "cmd %#x lba %d count %d" c lba n
  | Multiple k -> Printf.sprintf "multiple %d" k
  | Read_block (w, n) -> Printf.sprintf "read_block w%d x%d" w n
  | Write_block (w, n, _) -> Printf.sprintf "write_block w%d x%d" w n
  | Read w -> Printf.sprintf "read w%d" w
  | Write (w, v) -> Printf.sprintf "write w%d %#x" w v
  | Status -> "status"
  | Reset -> "reset"

let ide_script_gen =
  let open QCheck.Gen in
  let width = oneofl [ 8; 16; 32 ] in
  (* Short runs, runs ending in or just past a sector, and runs across
     several DRQ blocks or past the whole transfer. *)
  let len =
    frequency
      [ (2, int_bound 8); (3, int_range 1 600); (2, int_range 250 260);
        (2, int_range 500 4200) ]
  in
  let step =
    frequency
      [
        ( 3,
          map3
            (fun c lba n -> Command (c, lba, n))
            (oneofl [ 0x20; 0x20; 0x30; 0x30; 0xec ])
            (int_bound 63)
            (frequency [ (12, int_range 1 24); (1, return 0) ]) );
        (1, map (fun k -> Multiple k) (int_range 1 16));
        (5, map2 (fun w n -> Read_block (w, n)) width len);
        (5, map3 (fun w n s -> Write_block (w, n, s)) width len (int_bound 1000));
        (2, map (fun w -> Read w) width);
        (2, map2 (fun w v -> Write (w, v)) width (int_bound 0xffff_ffff));
        (1, return Status);
        (1, return Reset);
      ]
  in
  let kind =
    let p = map (fun k -> float_of_int k /. 100.) (int_bound 25) in
    oneof
      [
        map (fun probability -> Devil_runtime.Fault.Transient { probability }) p;
        map (fun probability -> Devil_runtime.Fault.Flip_bits { mask = 0x8001; probability }) p;
        map (fun probability -> Devil_runtime.Fault.Drop_write { probability }) p;
        map (fun probability -> Devil_runtime.Fault.Duplicate_write { probability }) p;
        return (Devil_runtime.Fault.Stuck_bits { and_mask = 0xfffe_ffff; or_mask = 0x10 });
      ]
  in
  let plan =
    map3
      (fun kind whole budget ->
        Devil_runtime.Fault.plan ?budget ~label:"p" ~first:0x1f0
          ~last:(if whole then 0x1f7 else 0x1f0) kind)
      kind bool (opt (int_range 1 40))
  in
  quad (list_size (int_range 1 40) step) (list_size (int_bound 2) plan)
    (int_bound 1000) (int_bound 1000)

let print_ide_script (steps, plans, seed, salt) =
  Printf.sprintf "seed %d salt %d plans [%s]\n%s" seed salt
    (String.concat "; "
       (List.map
          (fun (p : Devil_runtime.Fault.plan) ->
            Printf.sprintf "%s %#x-%#x" (Devil_runtime.Fault.kind_tag p.kind)
              p.first p.last)
          plans))
    (String.concat "\n" (List.map print_ide_step steps))

(* What one disk answers to the script: each transfer's result (or its
   fault) with the interrupt line after it; then the interrupt count,
   the status byte, the bus counts and every sector the script can
   reach. *)
let run_ide_script ~block (steps, plans, seed, salt) =
  let disk = Hwsim.Ide_disk.create () in
  for lba = 0 to 15 do
    Hwsim.Ide_disk.write_sector disk ~lba
      (Bytes.init 512 (fun i -> Char.chr ((lba * 37 + i * 11 + salt) land 0xff)))
  done;
  let cmd = Hwsim.Ide_disk.command_model disk in
  let space = Io_space.create () in
  Io_space.attach space ~base:0x1f0 ~size:8
    (if block then cmd else { cmd with Hwsim.Model.block = None });
  Io_space.attach space ~base:0x3f6 ~size:1 (Hwsim.Ide_disk.control_model disk);
  let bus =
    Devil_runtime.Fault.bus
      (Devil_runtime.Fault.wrap ~seed ~plans (Io_space.bus space))
  in
  let seen = ref [] in
  let transfer f =
    let r =
      match f () with
      | v -> `Ok v
      | exception Devil_runtime.Fault.Bus_fault m -> `Fault m
    in
    seen := (r, Hwsim.Ide_disk.irq_pending disk) :: !seen
  in
  let read ~width addr () = [| bus.Devil_runtime.Bus.read ~width ~addr |] in
  let write ~width addr value () =
    bus.Devil_runtime.Bus.write ~width ~addr ~value;
    [||]
  in
  List.iter
    (function
      | Command (c, lba, n) ->
          List.iter
            (fun (off, v) -> transfer (write ~width:8 (0x1f0 + off) v))
            [ (2, n); (3, lba); (4, 0); (5, 0); (6, 0xe0); (7, c) ]
      | Multiple k -> Hwsim.Ide_disk.set_multiple disk k
      | Read_block (width, n) ->
          transfer (fun () ->
              let into = Array.make n (-1) in
              bus.Devil_runtime.Bus.read_block ~width ~addr:0x1f0 ~into;
              into)
      | Write_block (width, n, s) ->
          let mask = if width = 32 then 0xffff_ffff else 0xffff in
          transfer (fun () ->
              bus.Devil_runtime.Bus.write_block ~width ~addr:0x1f0
                ~from:(Array.init n (fun i -> (s * 7919 + i * 40503) land mask));
              [||])
      | Read width -> transfer (read ~width 0x1f0)
      | Write (width, v) -> transfer (write ~width 0x1f0 v)
      | Status -> transfer (read ~width:8 0x1f7)
      | Reset ->
          transfer (write ~width:8 0x3f6 0x04);
          transfer (write ~width:8 0x3f6 0x00))
    steps;
  let stats = Io_space.stats space in
  ( List.rev !seen,
    Hwsim.Ide_disk.irq_count disk,
    (Hwsim.Ide_disk.control_model disk).Hwsim.Model.read ~width:8 ~offset:0,
    (stats.reads, stats.writes, stats.block_ops, stats.block_items),
    List.init 320 (fun lba -> Hwsim.Ide_disk.read_sector disk ~lba) )

let prop_ide_block_op =
  QCheck.Test.make ~name:"IDE data port: block op = per-element path"
    ~count:(qcount 100)
    (QCheck.make ~print:print_ide_script ide_script_gen)
    (fun script ->
      run_ide_script ~block:true script = run_ide_script ~block:false script)

(* {1 NE2000} *)

let ne_setup () =
  let n = Hwsim.Ne2000.create () in
  let m = Hwsim.Ne2000.model n in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (n, rd, wr)

let test_ne2000_remote_dma () =
  let n, rd, wr = ne_setup () in
  wr 0 0x22;  (* start *)
  (* remote write 4 bytes at 0x4000 *)
  wr 8 0x00; wr 9 0x40; wr 10 4; wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  List.iter (fun b -> wr 16 b) [ 0xde; 0xad; 0xbe; 0xef ];
  Alcotest.(check int) "ram" 0xad (Hwsim.Ne2000.ram_byte n 0x4001);
  Alcotest.(check bool) "rdc set" true (rd 7 land 0x40 <> 0);
  (* remote read back *)
  wr 8 0x00; wr 9 0x40; wr 10 4; wr 11 0;
  wr 0 0x0a;  (* start + remote read *)
  Alcotest.(check (list int)) "readback" [ 0xde; 0xad; 0xbe; 0xef ]
    (List.init 4 (fun _ -> rd 16))

let test_ne2000_loopback_rx_ring () =
  let n, rd, wr = ne_setup () in
  wr 0 0x22;
  wr 13 0x02;  (* TCR loopback *)
  (* place a frame in tx memory via remote DMA *)
  let frame = "abcdefgh" in
  wr 8 0; wr 9 0x40; wr 10 (String.length frame); wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  String.iter (fun c -> wr 16 (Char.code c)) frame;
  (* transmit *)
  wr 4 0x40; wr 5 (String.length frame); wr 6 0;
  wr 0 (0x22 lor 0x04);
  Alcotest.(check bool) "ptx" true (rd 7 land 0x02 <> 0);
  Alcotest.(check bool) "prx" true (rd 7 land 0x01 <> 0);
  (* the receive header is at the old CURR page *)
  Alcotest.(check int) "rx status" 0x01 (Hwsim.Ne2000.ram_byte n 0x4600);
  Alcotest.(check int) "length lo" (String.length frame + 4)
    (Hwsim.Ne2000.ram_byte n 0x4602);
  Alcotest.(check int) "payload" (Char.code 'a') (Hwsim.Ne2000.ram_byte n 0x4604)

let test_ne2000_inject_and_overflow () =
  let n, _, wr = ne_setup () in
  Alcotest.(check bool) "stopped: rejected" false
    (Hwsim.Ne2000.inject_frame n "xx");
  wr 0 0x22;
  Alcotest.(check bool) "accepted" true (Hwsim.Ne2000.inject_frame n "xx");
  (* Fill the ring until it refuses. *)
  let big = String.make 1000 'y' in
  let rec fill n_acc =
    if Hwsim.Ne2000.inject_frame n big then fill (n_acc + 1) else n_acc
  in
  let accepted = fill 0 in
  Alcotest.(check bool) "ring eventually full" true (accepted < 60)

let test_ne2000_wire_tx () =
  let n, _, wr = ne_setup () in
  wr 0 0x22;
  wr 13 0x00;  (* normal mode *)
  wr 8 0; wr 9 0x40; wr 10 2; wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  wr 16 0x68; wr 16 0x69;
  wr 4 0x40; wr 5 2; wr 6 0;
  wr 0 (0x22 lor 0x04);
  Alcotest.(check (list string)) "on the wire" [ "hi" ]
    (Hwsim.Ne2000.take_transmitted n)

(* {1 8237 DMA} *)

let test_dma8237_flipflop () =
  let d = Hwsim.Dma8237.create ~memory_size:256 in
  let m = Hwsim.Dma8237.model d in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 12 0;  (* clear flip-flop *)
  wr 1 0x34; wr 1 0x12;  (* channel 0 count = 0x1234 *)
  Alcotest.(check int) "count" 0x1234 (Hwsim.Dma8237.programmed_count d ~channel:0);
  wr 12 0;
  Alcotest.(check int) "low" 0x34 (rd 1);
  Alcotest.(check int) "high" 0x12 (rd 1)

let test_dma8237_transfer () =
  let d = Hwsim.Dma8237.create ~memory_size:256 in
  let m = Hwsim.Dma8237.model d in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 13 0;  (* master clear *)
  wr 11 0x45;  (* channel 1, write-to-memory, single *)
  wr 12 0;
  wr 2 0x10; wr 2 0x00;  (* address 0x10 *)
  wr 12 0;
  wr 3 3; wr 3 0;  (* count 3 -> 4 bytes *)
  wr 10 0x01;  (* unmask channel 1 *)
  let moved =
    Hwsim.Dma8237.device_request d ~channel:1
      ~data:(Bytes.of_string "wxyz") Hwsim.Dma8237.To_memory
  in
  Alcotest.(check int) "bytes moved" 4 moved;
  Alcotest.(check string) "memory" "wxyz"
    (Bytes.sub_string (Hwsim.Dma8237.memory d) 0x10 4);
  Alcotest.(check bool) "tc" true (Hwsim.Dma8237.terminal_count d ~channel:1);
  Alcotest.(check bool) "auto-masked" true (Hwsim.Dma8237.channel_masked d ~channel:1)

let test_dma8237_masked_channel () =
  let d = Hwsim.Dma8237.create ~memory_size:64 in
  let moved =
    Hwsim.Dma8237.device_request d ~channel:0 ~data:(Bytes.make 4 'a')
      Hwsim.Dma8237.To_memory
  in
  Alcotest.(check int) "refused" 0 moved

(* {1 8259 PIC} *)

let pic_setup () =
  let p = Hwsim.Pic8259.create () in
  let m = Hwsim.Pic8259.model p in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (p, rd, wr)

let init_pc_master wr =
  wr 0 0x11;  (* ICW1: cascaded, ICW4 needed *)
  wr 1 0x20;  (* ICW2: vectors at 0x20 *)
  wr 1 0x04;  (* ICW3 *)
  wr 1 0x01   (* ICW4: 8086 mode *)

let test_pic_init_variants () =
  let p, _, wr = pic_setup () in
  init_pc_master wr;
  Alcotest.(check bool) "initialized" true (Hwsim.Pic8259.initialized p);
  Alcotest.(check int) "vectors" 0x20 (Hwsim.Pic8259.vector_base p);
  (* Single + no ICW4: two writes suffice. *)
  let p2, _, wr2 = pic_setup () in
  wr2 0 0x12;
  wr2 1 0x40;
  Alcotest.(check bool) "short init" true (Hwsim.Pic8259.initialized p2);
  Alcotest.(check int) "vectors 2" 0x40 (Hwsim.Pic8259.vector_base p2)

let test_pic_priorities () =
  let p, _, wr = pic_setup () in
  init_pc_master wr;
  wr 1 0x00;  (* OCW1: unmask all *)
  Hwsim.Pic8259.raise_irq p ~line:3;
  Hwsim.Pic8259.raise_irq p ~line:1;
  Alcotest.(check (option int)) "highest first" (Some 0x21) (Hwsim.Pic8259.inta p);
  (* line 3 is pending but nested below the in-service line 1. *)
  Alcotest.(check bool) "nested blocks" false (Hwsim.Pic8259.int_asserted p);
  wr 0 0x20;  (* non-specific EOI *)
  Alcotest.(check (option int)) "then lower" (Some 0x23) (Hwsim.Pic8259.inta p);
  wr 0 0x20;
  Alcotest.(check int) "isr clear" 0 (Hwsim.Pic8259.isr p)

let test_pic_masking_and_reads () =
  let p, rd, wr = pic_setup () in
  init_pc_master wr;
  wr 1 0xfd;  (* only line 1 open *)
  Hwsim.Pic8259.raise_irq p ~line:0;
  Hwsim.Pic8259.raise_irq p ~line:1;
  Alcotest.(check (option int)) "masked line skipped" (Some 0x21)
    (Hwsim.Pic8259.inta p);
  wr 0 0x0a;  (* OCW3: read IRR *)
  Alcotest.(check int) "irr" 0x01 (rd 0);
  wr 0 0x0b;  (* OCW3: read ISR *)
  Alcotest.(check int) "isr" 0x02 (rd 0);
  Alcotest.(check int) "imr readback" 0xfd (rd 1)

(* {1 CS4236B} *)

let test_cs4236b_indexed () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 0 6; wr 1 0x2a;
  Alcotest.(check int) "I6" 0x2a (Hwsim.Cs4236b.indexed_reg c 6);
  wr 0 6;
  Alcotest.(check int) "readback" 0x2a (rd 1)

let test_cs4236b_automaton () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (* select I23, write XA=25 with XRAE: bits [2,7..4]=11001, bit3=1 *)
  wr 0 23;
  let xa25 = 0x90 lor 0x04 lor 0x08 in  (* bits 7..4 = 1001, bit2=1, XRAE *)
  wr 1 xa25;
  Alcotest.(check bool) "extended" true (Hwsim.Cs4236b.extended_mode c);
  Alcotest.(check int) "X25 version" Hwsim.Cs4236b.chip_version (rd 1);
  (* X25 is read-only *)
  wr 1 0x55;
  Alcotest.(check int) "still version" Hwsim.Cs4236b.chip_version
    (Hwsim.Cs4236b.extended_reg c 25);
  (* control write leaves extended mode *)
  wr 0 0;
  Alcotest.(check bool) "left extended" false (Hwsim.Cs4236b.extended_mode c)

let test_cs4236b_pcm () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Alcotest.(check int) "no data" 0 (rd 2);
  Hwsim.Cs4236b.queue_pcm c [ 1; 2; 3 ];
  Alcotest.(check int) "data ready" 1 (rd 2);
  let s1 = rd 3 in
  let s2 = rd 3 in
  let s3 = rd 3 in
  Alcotest.(check (list int)) "capture" [ 1; 2; 3 ] [ s1; s2; s3 ];
  wr 3 9; wr 3 8;
  Alcotest.(check (list int)) "playback" [ 9; 8 ] (Hwsim.Cs4236b.played c)

(* {1 Permedia2} *)

let test_permedia_fill_copy () =
  let g = Hwsim.Permedia2.create ~width:64 ~height:32 () in
  let m = Hwsim.Permedia2.mmio_model g in
  let wr off v = m.Hwsim.Model.write ~width:32 ~offset:off ~value:v in
  wr 6 8;
  wr 1 0x7;
  wr 2 (4 lor (5 lsl 16));
  wr 3 (3 lor (2 lsl 16));
  wr 5 0x1;
  (* drain *)
  let rd off = m.Hwsim.Model.read ~width:32 ~offset:off in
  while rd 7 <> 0 do () done;
  Alcotest.(check int) "filled" 0x7 (Hwsim.Permedia2.pixel g ~x:5 ~y:6);
  Alcotest.(check int) "outside" 0 (Hwsim.Permedia2.pixel g ~x:3 ~y:5);
  (* copy right by 8 *)
  wr 2 (12 lor (5 lsl 16));
  wr 3 (3 lor (2 lsl 16));
  wr 4 8;
  wr 5 0x2;
  while rd 7 <> 0 do () done;
  Alcotest.(check int) "copied" 0x7 (Hwsim.Permedia2.pixel g ~x:13 ~y:6)

let test_permedia_fifo () =
  let g = Hwsim.Permedia2.create () in
  let m = Hwsim.Permedia2.mmio_model g in
  let rd off = m.Hwsim.Model.read ~width:32 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:32 ~offset:off ~value:v in
  Alcotest.(check int) "initially free" Hwsim.Permedia2.fifo_capacity (rd 0);
  (* A big fill keeps the engine busy; pile writes onto the queue. *)
  wr 6 32;
  wr 2 0; wr 3 (500 lor (500 lsl 16)); wr 5 1;
  let free_before = rd 0 in
  for _ = 1 to Hwsim.Permedia2.fifo_capacity + 10 do
    wr 1 0
  done;
  Alcotest.(check bool) "fifo filled" true (rd 0 < free_before);
  Alcotest.(check bool) "overflow recorded" true (Hwsim.Permedia2.overflows g > 0)

let () =
  Alcotest.run "hwsim"
    [
      ( "io_space",
        [
          case "dispatch and faults" test_io_space_dispatch;
          case "block accounting" test_io_space_blocks;
          case "transfers allocate nothing" test_io_space_allocation_free;
          QCheck_alcotest.to_alcotest prop_decode;
        ] );
      ( "busmouse",
        [
          case "read cycle" test_busmouse_cycle;
          case "control decode" test_busmouse_control_decode;
          case "saturation" test_busmouse_clamp;
        ] );
      ( "ide",
        [
          case "pio roundtrip" test_ide_pio_roundtrip;
          case "multi-sector interrupts" test_ide_multi_sector_irqs;
          case "dma handshake" test_ide_dma_handshake;
          case "unknown command aborts" test_ide_abort_unknown_command;
          QCheck_alcotest.to_alcotest prop_ide_block_op;
        ] );
      ( "ne2000",
        [
          case "remote dma" test_ne2000_remote_dma;
          case "loopback to rx ring" test_ne2000_loopback_rx_ring;
          case "inject and ring-full" test_ne2000_inject_and_overflow;
          case "wire transmit" test_ne2000_wire_tx;
        ] );
      ( "dma8237",
        [
          case "flip-flop latching" test_dma8237_flipflop;
          case "device transfer" test_dma8237_transfer;
          case "masked channel refuses" test_dma8237_masked_channel;
        ] );
      ( "pic8259",
        [
          case "init variants" test_pic_init_variants;
          case "priorities and eoi" test_pic_priorities;
          case "masking and status reads" test_pic_masking_and_reads;
        ] );
      ( "cs4236b",
        [
          case "indexed registers" test_cs4236b_indexed;
          case "extended-register automaton" test_cs4236b_automaton;
          case "pcm fifo" test_cs4236b_pcm;
        ] );
      ( "permedia2",
        [
          case "fill and copy" test_permedia_fill_copy;
          case "fifo and overflow" test_permedia_fifo;
        ] );
    ]
