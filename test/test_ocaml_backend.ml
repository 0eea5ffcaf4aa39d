(* Differential testing of the OCaml backend: the module devilc
   generates for a specification (compiled into this binary by a dune
   rule — see test/dune) must behave exactly like the interpreting
   runtime bound to the same specification: same values, same bus
   operations, in the same order. The busmouse and the i8042 are
   checked this way; the other modules are driven over their models
   or RAM. *)

module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Value = Devil_ir.Value

let case name f = Alcotest.test_case name `Quick f

type op = R of int * int | W of int * int * int  (* width, addr[, value] *)

let pp_op fmt = function
  | R (w, a) -> Format.fprintf fmt "R%d[%#x]" w a
  | W (w, a, v) -> Format.fprintf fmt "W%d[%#x]=%#x" w a v

let op = Alcotest.testable pp_op ( = )

(* A bus that logs every operation; [route addr] names the model and
   offset an address decodes to. *)
let logging_bus route =
  let log = ref [] in
  let read ~width ~addr =
    log := R (width, addr) :: !log;
    let (model : Hwsim.Model.t), offset = route addr in
    model.read ~width ~offset
  in
  let write ~width ~addr ~value =
    log := W (width, addr, value) :: !log;
    let (model : Hwsim.Model.t), offset = route addr in
    model.write ~width ~offset ~value
  in
  let bus =
    {
      Bus.read;
      write;
      read_block =
        (fun ~width ~addr ~into ->
          Array.iteri (fun i _ -> into.(i) <- read ~width ~addr) into);
      write_block =
        (fun ~width ~addr ~from ->
          Array.iter (fun value -> write ~width ~addr ~value) from);
    }
  in
  (bus, fun () -> List.rev !log)

(* A bus over a fresh busmouse model that logs every operation. *)
let logging_mouse_bus () =
  let mouse = Hwsim.Busmouse.create () in
  let bus, log =
    logging_bus (fun addr -> (Hwsim.Busmouse.model mouse, addr - 0x23c))
  in
  (mouse, bus, log)

module Gen_env (B : sig
  val bus : Bus.t
end) =
struct
  let read = B.bus.Bus.read
  let write = B.bus.Bus.write
  let read_block = B.bus.Bus.read_block
  let write_block = B.bus.Bus.write_block
  let base _ = 0x23c
end

let int_of_value = function
  | Value.Int n -> n
  | Value.Bool b -> if b then 1 else 0
  | Value.Enum _ -> Alcotest.fail "unexpected enum"

let test_busmouse_differential () =
  (* Interpreter side. *)
  let mouse_i, bus_i, log_i = logging_mouse_bus () in
  let inst =
    Instance.create (Devil_specs.Specs.busmouse ()) ~bus:bus_i
      ~bases:[ ("base", 0x23c) ]
  in
  (* Generated side. *)
  let mouse_g, bus_g, log_g = logging_mouse_bus () in
  let module G =
    Gen_busmouse.Make (Gen_env (struct
      let bus = bus_g
    end))
  in
  (* The same scenario on both. *)
  Hwsim.Busmouse.move mouse_i ~dx:11 ~dy:(-7);
  Hwsim.Busmouse.set_buttons mouse_i 0b110;
  Hwsim.Busmouse.move mouse_g ~dx:11 ~dy:(-7);
  Hwsim.Busmouse.set_buttons mouse_g 0b110;

  (* probe *)
  Instance.set inst "signature" (Value.Int 0x5a);
  G.set_signature 0x5a;
  Alcotest.(check int) "signature" (int_of_value (Instance.get inst "signature"))
    (G.get_signature ());

  (* configuration *)
  Instance.set inst "config" (Value.Enum "DEFAULT_MODE");
  G.set_config G.const_config_default_mode;
  Instance.set inst "interrupt" (Value.Enum "ENABLE");
  G.set_interrupt G.const_interrupt_enable;

  (* the structure read *)
  Instance.get_struct inst "mouse_state";
  G.get_mouse_state ();
  Alcotest.(check int) "dx" (int_of_value (Instance.get inst "dx")) (G.get_dx ());
  Alcotest.(check int) "dy" (int_of_value (Instance.get inst "dy")) (G.get_dy ());
  Alcotest.(check int) "buttons"
    (int_of_value (Instance.get inst "buttons"))
    (G.get_buttons ());
  Alcotest.(check int) "dx value" 11 (G.get_dx ());
  Alcotest.(check int) "dy value" (-7) (G.get_dy ());

  (* Same bus traffic, operation for operation. *)
  Alcotest.(check (list op)) "identical I/O traces" (log_i ()) (log_g ())

let test_busmouse_generated_checks () =
  let _, bus, _ = logging_mouse_bus () in
  let module G =
    Gen_busmouse.Make (Gen_env (struct
      let bus = bus
    end))
  in
  (match G.set_signature 0x1ff with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "range violation accepted");
  match G.set_config 2 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "non-case enum value accepted"

(* The i8042 has two ports and a controller command that fires on
   write; the generated module must issue the interpreter's exact bus
   operations through a self-test and a keypress. *)
let kbd_data_base = 0x60
let kbd_ctl_base = 0x64

let logging_kbd_bus () =
  let kbd = Hwsim.I8042.create () in
  let bus, log =
    logging_bus (fun addr ->
        if addr = kbd_data_base then (Hwsim.I8042.data_model kbd, 0)
        else (Hwsim.I8042.control_model kbd, addr - kbd_ctl_base))
  in
  (kbd, bus, log)

let test_i8042_differential () =
  let kbd_i, bus_i, log_i = logging_kbd_bus () in
  let inst =
    Instance.create ~interpret:true (Devil_specs.Specs.i8042 ()) ~bus:bus_i
      ~bases:[ ("data", kbd_data_base); ("ctl", kbd_ctl_base) ]
  in
  let kbd_g, bus_g, log_g = logging_kbd_bus () in
  let module G =
    Gen_i8042.Make (struct
      let read = bus_g.Bus.read
      let write = bus_g.Bus.write
      let read_block = bus_g.Bus.read_block
      let write_block = bus_g.Bus.write_block
      let base = function "data" -> kbd_data_base | _ -> kbd_ctl_base
    end)
  in
  let get name = int_of_value (Instance.get inst name) in
  let check_status what =
    Instance.get_struct inst "kbd_status";
    G.get_kbd_status ();
    Alcotest.(check int) (what ^ ": output_full") (get "output_full")
      (G.get_output_full ());
    Alcotest.(check int) (what ^ ": system_flag") (get "system_flag")
      (G.get_system_flag ());
    Alcotest.(check int) (what ^ ": output_full set") 1 (G.get_output_full ())
  in
  (* The self test answers 0x55 on the data port. *)
  Instance.set inst "controller_command" (Value.Enum "SELF_TEST");
  G.set_controller_command G.const_controller_command_self_test;
  check_status "self test";
  let answer = get "kbd_data" in
  Alcotest.(check int) "self-test answer" answer (G.get_kbd_data ());
  Alcotest.(check int) "self-test answer value" 0x55 answer;
  (* One pressed scancode. *)
  List.iter
    (fun kbd ->
      Alcotest.(check bool) "press accepted" true (Hwsim.I8042.press kbd 0x1c))
    [ kbd_i; kbd_g ];
  check_status "keypress";
  let code = get "kbd_data" in
  Alcotest.(check int) "scancode" code (G.get_kbd_data ());
  Alcotest.(check int) "scancode value" 0x1c code;
  Alcotest.(check (list op)) "identical I/O traces" (log_i ()) (log_g ())

(* The UART exercises the DLAB overlay, serialization and block
   stubs through the generated module. *)
let logging_uart_bus () =
  let uart = Hwsim.Uart16550.create () in
  let model = Hwsim.Uart16550.model uart in
  let bus =
    {
      Bus.read =
        (fun ~width ~addr ->
          model.Hwsim.Model.read ~width ~offset:(addr - 0x3f8));
      write =
        (fun ~width ~addr ~value ->
          model.Hwsim.Model.write ~width ~offset:(addr - 0x3f8) ~value);
      read_block =
        (fun ~width ~addr ~into ->
          Array.iteri
            (fun i _ ->
              into.(i) <- model.Hwsim.Model.read ~width ~offset:(addr - 0x3f8))
            into);
      write_block =
        (fun ~width ~addr ~from ->
          Array.iter
            (fun value ->
              model.Hwsim.Model.write ~width ~offset:(addr - 0x3f8) ~value)
            from);
    }
  in
  (uart, bus)

let test_uart_generated_driver () =
  let uart, bus = logging_uart_bus () in
  let module G =
    Gen_uart.Make (struct
      let read = bus.Bus.read
      let write = bus.Bus.write
      let read_block = bus.Bus.read_block
      let write_block = bus.Bus.write_block
      let base _ = 0x3f8
    end)
  in
  (* Program the divisor through the DLAB overlay. *)
  G.set_divisor (115200 / 19200);
  Alcotest.(check int) "device divisor" 6 (Hwsim.Uart16550.divisor uart);
  G.set_word_length G.const_word_length_bits8;
  G.set_two_stop_bits 0;
  (* DLAB must be back off: the data write goes to the THR. *)
  G.write_tx_data_block [| Char.code 'o'; Char.code 'k' |];
  Alcotest.(check string) "wire" "ok" (Hwsim.Uart16550.take_transmitted uart);
  (* Receive through the block stub. *)
  Hwsim.Uart16550.inject uart "hi";
  let data = G.read_rx_data_block 2 in
  Alcotest.(check (list int)) "received"
    [ Char.code 'h'; Char.code 'i' ]
    (Array.to_list data);
  (* Structure read of the line status. *)
  G.get_line_status ();
  Alcotest.(check int) "thr empty" 1 (G.get_thr_empty ());
  Alcotest.(check int) "no data" 0 (G.get_data_ready ())

(* The CS4236B generated module exercises parameterized registers and
   structure-writing pre-actions (the access automaton). *)
let test_cs4236b_generated_automaton () =
  let chip = Hwsim.Cs4236b.create () in
  let model = Hwsim.Cs4236b.model chip in
  let module G =
    Gen_cs4236b.Make (struct
      let read ~width ~addr = model.Hwsim.Model.read ~width ~offset:(addr - 0x530)
      let write ~width ~addr ~value =
        model.Hwsim.Model.write ~width ~offset:(addr - 0x530) ~value
      let read_block ~width ~addr ~into =
        Array.iteri (fun i _ -> into.(i) <- read ~width ~addr) into
      let write_block ~width ~addr ~from =
        Array.iter (fun value -> write ~width ~addr ~value) from
      let base _ = 0x530
    end)
  in
  (* Indexed mixer access through the generated setters. *)
  G.set_left_attenuation 21;
  G.set_left_mute 0;
  Alcotest.(check int) "I6" 21 (Hwsim.Cs4236b.indexed_reg chip 6);
  (* The extended-register automaton behind get_chip_version. *)
  Alcotest.(check int) "X25" Hwsim.Cs4236b.chip_version (G.get_chip_version ());
  Alcotest.(check bool) "extended mode entered" true
    (Hwsim.Cs4236b.extended_mode chip);
  (* The parameterized register stubs. *)
  G.write_I 6 0x3f;
  Alcotest.(check int) "write via template" 0x3f
    (Hwsim.Cs4236b.indexed_reg chip 6);
  Alcotest.(check bool) "template leaves extended mode" false
    (Hwsim.Cs4236b.extended_mode chip);
  (match G.read_I 99 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "out-of-range template index accepted");
  Alcotest.(check int) "read via template" 0x3f (G.read_I 6)

(* Smoke coverage: every bundled specification's generated module is
   compiled into this binary (dune rules) and driven over a RAM bus —
   any emission bug in any feature combination fails the build or one
   of these checks. *)
module Ram_env (P : sig
  val size : int
end) =
struct
  let cells = Array.make P.size 0
  let read ~width ~addr = cells.(addr) land Devil_bits.Bitops.width_mask width
  let write ~width ~addr ~value =
    cells.(addr) <- value land Devil_bits.Bitops.width_mask width
  let read_block ~width ~addr ~into =
    Array.iteri (fun i _ -> into.(i) <- read ~width ~addr) into
  let write_block ~width ~addr ~from =
    Array.iter (fun value -> write ~width ~addr ~value) from
  let base _ = 0
end

let test_generated_all_specs () =
  (let module G = Gen_ne2000.Make (Ram_env (struct let size = 64 end)) in
   G.set_st G.const_st_stop;
   G.set_page_start 0x46;
   Alcotest.(check int) "ne2000 pstart" 0x46 (G.get_page_start ());
   G.set_remote_count 1234;
   Alcotest.(check int) "ne2000 16-bit split" 1234 (G.get_remote_count ()));
  (let module G = Gen_ide.Make (Ram_env (struct let size = 16 end)) in
   G.set_sector_count 7;
   Alcotest.(check int) "ide count" 7 (G.get_sector_count ());
   G.set_command G.const_command_read_sectors;
   G.get_ide_status ();
   Alcotest.(check int) "ide bsy" 0 (G.get_bsy ()));
  (let module G = Gen_piix4.Make (Ram_env (struct let size = 16 end)) in
   G.set_prd_address 0xabcdef;
   Alcotest.(check int) "piix4 prd" 0xabcdef (G.get_prd_address ()));
  (let module G = Gen_dma8237.Make (Ram_env (struct let size = 16 end)) in
   (* The serialized 16-bit counter writes low byte then high through
      one port; over RAM the last write wins, so the readback is the
      high byte — what matters is that it emits and runs. *)
   G.set_count0 0x1234;
   G.set_mask_bits 0x5;
   Alcotest.(check int) "dma mask bits" 0x5 (G.get_mask_bits ()));
  (let module G = Gen_pic8259.Make (Ram_env (struct let size = 4 end)) in
   (* Conditional serialization: cascaded + ic4 emits all four ICWs. *)
   G.set_init ~ic4:1 ~sngl:G.const_sngl_cascaded ~adi:0
     ~ltim:G.const_ltim_edge ~vector_base:4 ~cascade_map:0x04
     ~microprocessor:G.const_microprocessor_x8086 ~auto_eoi:0
     ~buffer_master:0 ~buffered:0 ~nested:0;
   G.set_irq_mask 0xaa;
   Alcotest.(check int) "pic imr" 0xaa (G.get_irq_mask ()));
  (let module G = Gen_permedia2.Make (Ram_env (struct let size = 32 end)) in
   G.set_fill_color 0x123456;
   G.set_rect_position ~rect_x:10 ~rect_y:20;
   Alcotest.(check int) "gfx x" 10 (G.get_rect_x ());
   Alcotest.(check int) "gfx y" 20 (G.get_rect_y ());
   G.set_copy_vector ~copy_dx:(-3) ~copy_dy:5;
   Alcotest.(check int) "gfx signed dx" (-3) (G.get_copy_dx ()));
  let module G = Gen_mc146818.Make (Ram_env (struct let size = 4 end)) in
  G.set_seconds_alarm 59;
  Alcotest.(check int) "rtc alarm" 59 (G.get_seconds_alarm ())

let () =
  Alcotest.run "ocaml_backend"
    [
      ( "differential",
        [
          case "busmouse: generated = interpreted" test_busmouse_differential;
          case "i8042: generated = interpreted" test_i8042_differential;
          case "generated range checks" test_busmouse_generated_checks;
          case "uart: overlay, blocks, structures" test_uart_generated_driver;
          case "cs4236b: templates and automaton" test_cs4236b_generated_automaton;
          case "all specs: generated modules run" test_generated_all_specs;
        ] );
    ]
