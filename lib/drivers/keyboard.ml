module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

(* Protocol answers arrive quickly or not at all; a missing answer is
   part of the protocol (the caller reports [false]), so the bound is
   local and much shorter than the machine's poll deadline. *)
let answer_deadline = 1000

module Devil_driver = struct
  type t = Instance.t

  let create inst = inst

  let output_full t =
    Instance.get_struct t "kbd_status";
    match Instance.get t "output_full" with
    | Value.Bool b -> b
    | _ -> false

  let read_data t =
    match Instance.get t "kbd_data" with Value.Int v -> v | _ -> 0

  let wait_data t =
    Policy.try_poll_for ?ctx:(Instance.ctx t) ~deadline:answer_deadline
      (fun () -> if output_full t then Some (read_data t) else None)

  let init t =
    Instance.set t "controller_command" (Value.Enum "SELF_TEST");
    let self = wait_data t = Some 0x55 in
    Instance.set t "controller_command" (Value.Enum "IFACE_TEST");
    let iface = wait_data t = Some 0x00 in
    Instance.set t "controller_command" (Value.Enum "ENABLE_KBD");
    self && iface

  let poll_scancode t = if output_full t then Some (read_data t) else None

  let set_leds t mask =
    Instance.set t "kbd_data" (Value.Int 0xed);
    let ack1 = wait_data t = Some 0xfa in
    Instance.set t "kbd_data" (Value.Int (mask land 0x7));
    let ack2 = wait_data t = Some 0xfa in
    ack1 && ack2

  let read_config t =
    Instance.set t "controller_command" (Value.Enum "READ_CONFIG");
    Option.value (wait_data t) ~default:0

  let write_config t v =
    Instance.set t "controller_command" (Value.Enum "WRITE_CONFIG");
    Instance.set t "kbd_data" (Value.Int (v land 0xff))
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; data_base : int; ctl_base : int }

  let create bus ~data_base ~ctl_base = { bus; data_base; ctl_base }

  let inb t addr = t.bus.Devil_runtime.Bus.read ~width:8 ~addr
  let outb t addr v = t.bus.Devil_runtime.Bus.write ~width:8 ~addr ~value:v

  let output_full t = inb t t.ctl_base land 0x01 <> 0
  let read_data t = inb t t.data_base

  let wait_data t =
    Policy.try_poll_for ~deadline:answer_deadline (fun () ->
        if output_full t then Some (read_data t) else None)

  let init t =
    outb t t.ctl_base 0xaa;
    let self = wait_data t = Some 0x55 in
    outb t t.ctl_base 0xab;
    let iface = wait_data t = Some 0x00 in
    outb t t.ctl_base 0xae;
    self && iface

  let poll_scancode t = if output_full t then Some (read_data t) else None

  let set_leds t mask =
    outb t t.data_base 0xed;
    let ack1 = wait_data t = Some 0xfa in
    outb t t.data_base (mask land 0x7);
    let ack2 = wait_data t = Some 0xfa in
    ack1 && ack2

  let read_config t =
    outb t t.ctl_base 0x20;
    Option.value (wait_data t) ~default:0

  let write_config t v =
    outb t t.ctl_base 0x60;
    outb t t.data_base (v land 0xff)
end
