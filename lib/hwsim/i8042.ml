type expect = Nothing | Config_byte | Led_byte

type t = {
  output : int Queue.t;  (* scancodes and responses, oldest first *)
  mutable config : int;
  mutable kbd_enabled : bool;
  mutable leds : int;
  mutable expect : expect;  (* what the next data-port write means *)
}

let create () =
  {
    output = Queue.create ();
    config = 0x45;
    kbd_enabled = true;
    leds = 0;
    expect = Nothing;
  }

let press t code =
  if t.kbd_enabled then Queue.push (code land 0xff) t.output;
  t.kbd_enabled

let leds t = t.leds
let keyboard_enabled t = t.kbd_enabled
let config_byte t = t.config

let status_byte t =
  let bit b cond = if cond then 1 lsl b else 0 in
  bit 0 (not (Queue.is_empty t.output))
  lor bit 2 true (* system flag: POST passed *)
  lor bit 4 true (* keylock open *)

let control_read t ~width:_ ~offset:_ = status_byte t

let control_write t ~width:_ ~offset:_ ~value =
  match value land 0xff with
  | 0x20 -> Queue.push t.config t.output  (* READ CONFIG *)
  | 0x60 -> t.expect <- Config_byte  (* WRITE CONFIG *)
  | 0xaa ->
      (* SELF TEST: respond 0x55, reset state. *)
      Queue.clear t.output;
      Queue.push 0x55 t.output;
      t.kbd_enabled <- true
  | 0xab -> Queue.push 0x00 t.output  (* IFACE TEST: ok *)
  | 0xad -> t.kbd_enabled <- false
  | 0xae -> t.kbd_enabled <- true
  | _ -> ()

let data_read t ~width:_ ~offset:_ =
  if Queue.is_empty t.output then 0 else Queue.pop t.output

let data_write t ~width:_ ~offset:_ ~value =
  let v = value land 0xff in
  match t.expect with
  | Config_byte ->
      t.config <- v;
      t.expect <- Nothing
  | Led_byte ->
      t.leds <- v land 0x7;
      t.expect <- Nothing;
      Queue.push 0xfa t.output  (* ACK *)
  | Nothing -> (
      (* Commands to the keyboard itself. *)
      match v with
      | 0xed ->
          t.expect <- Led_byte;
          Queue.push 0xfa t.output
      | 0xee -> Queue.push 0xee t.output  (* ECHO *)
      | 0xff ->
          (* keyboard reset: ACK then BAT ok *)
          Queue.push 0xfa t.output;
          Queue.push 0xaa t.output
      | _ -> Queue.push 0xfa t.output)

let data_model t =
  { Model.name = "i8042-data"; read = data_read t; write = data_write t;
    block = None }

let control_model t =
  { Model.name = "i8042-control"; read = control_read t; write = control_write t;
    block = None }
