let fifo_depth = 16

type t = {
  rx : int Queue.t;
  tx_wire : Buffer.t;
  mutable divisor : int;
  mutable lcr : int;
  mutable ier : int;
  mutable mcr : int;
  mutable fcr : int;
  mutable scratch : int;
  mutable overrun : bool;
}

let create () =
  {
    rx = Queue.create ();
    tx_wire = Buffer.create 64;
    divisor = 12;  (* 9600 baud *)
    lcr = 0;
    ier = 0;
    mcr = 0;
    fcr = 0;
    scratch = 0;
    overrun = false;
  }

let dlab t = t.lcr land 0x80 <> 0
let loopback_enabled t = t.mcr land 0x10 <> 0
let divisor t = t.divisor
let line_control t = t.lcr

let inject t s =
  String.iter
    (fun c ->
      if Queue.length t.rx >= fifo_depth then t.overrun <- true
      else Queue.push (Char.code c) t.rx)
    s

let take_transmitted t =
  let s = Buffer.contents t.tx_wire in
  Buffer.clear t.tx_wire;
  s

let lsr_byte t =
  let bit b c = if c then 1 lsl b else 0 in
  bit 0 (not (Queue.is_empty t.rx))
  lor bit 1 t.overrun
  lor bit 5 true (* THR empty: transmission is instantaneous here *)
  lor bit 6 true

let pending_irq t =
  if t.ier land 0x01 <> 0 && not (Queue.is_empty t.rx) then Some 0x4
  else if t.ier land 0x02 <> 0 then Some 0x2 (* THR empty *)
  else None

let irq_asserted t = pending_irq t <> None

let iir_byte t =
  let id = match pending_irq t with Some id -> id | None -> 0x1 in
  let fifo = if t.fcr land 0x01 <> 0 then 0xc0 else 0x00 in
  fifo lor id

let read t ~width:_ ~offset =
  match offset with
  | 0 ->
      if dlab t then t.divisor land 0xff
      else if Queue.is_empty t.rx then 0
      else Queue.pop t.rx
  | 1 -> if dlab t then (t.divisor lsr 8) land 0xff else t.ier
  | 2 -> iir_byte t
  | 3 -> t.lcr
  | 4 -> t.mcr
  | 5 ->
      let v = lsr_byte t in
      (* Reading LSR clears the error bits. *)
      t.overrun <- false;
      v
  | 6 ->
      (* Modem status; in loopback the MCR outputs fold back in. *)
      if loopback_enabled t then
        ((t.mcr land 0x3) lsl 4) lor ((t.mcr land 0xc) lsl 4)
      else 0xb0
  | 7 -> t.scratch
  | _ -> 0xff

let write t ~width:_ ~offset ~value =
  let v = value land 0xff in
  match offset with
  | 0 ->
      if dlab t then t.divisor <- (t.divisor land 0xff00) lor v
      else if loopback_enabled t then
        (if Queue.length t.rx < fifo_depth then Queue.push v t.rx)
      else Buffer.add_char t.tx_wire (Char.chr v)
  | 1 ->
      if dlab t then t.divisor <- (t.divisor land 0x00ff) lor (v lsl 8)
      else t.ier <- v land 0x0f
  | 2 ->
      t.fcr <- v;
      if v land 0x02 <> 0 then Queue.clear t.rx;
      if v land 0x04 <> 0 then ()  (* tx fifo reset: instantaneous *)
  | 3 -> t.lcr <- v
  | 4 -> t.mcr <- v land 0x1f
  | 5 | 6 -> ()
  | 7 -> t.scratch <- v
  | _ -> ()

let model t =
  { Model.name = "uart16550"; read = read t; write = write t; block = None }
