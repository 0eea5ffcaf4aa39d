module Bitops = Devil_bits.Bitops

type t = {
  mutable dx : int;  (* accumulated motion, signed 8-bit range *)
  mutable dy : int;
  mutable buttons : int;  (* 3 bits *)
  mutable index : int;  (* nibble selector, 0..3 *)
  mutable read_mask : int;  (* which nibbles were read since the last clear *)
  mutable irq_enabled : bool;
  mutable config : int;
  mutable signature : int;
}

let create () =
  {
    dx = 0;
    dy = 0;
    buttons = 0;
    index = 0;
    read_mask = 0;
    irq_enabled = false;
    config = 0;
    signature = 0;
  }

let clamp v = max (-128) (min 127 v)

let move t ~dx ~dy =
  t.dx <- clamp (t.dx + dx);
  t.dy <- clamp (t.dy + dy)

let set_buttons t b = t.buttons <- b land 0x7
let interrupt_enabled t = t.irq_enabled
let config_byte t = t.config
let signature_byte t = t.signature

let read_data t =
  let ux = Bitops.to_unsigned ~width:8 t.dx in
  let uy = Bitops.to_unsigned ~width:8 t.dy in
  let v =
    match t.index with
    | 0 -> ux land 0xf
    | 1 -> (ux lsr 4) land 0xf
    | 2 -> uy land 0xf
    | 3 -> (t.buttons lsl 5) lor ((uy lsr 4) land 0xf)
    | _ -> 0
  in
  (* Once every nibble of the counters has been sampled, the read cycle
     is complete and the counters restart from zero. *)
  t.read_mask <- t.read_mask lor (1 lsl t.index);
  if t.read_mask = 0xf then begin
    t.dx <- 0;
    t.dy <- 0;
    t.read_mask <- 0
  end;
  v

let read t ~width:_ ~offset =
  match offset with
  | 0 -> read_data t
  | 1 -> t.signature
  | 2 | 3 -> 0xff (* write-only locations float high *)
  | _ -> 0xff

let write t ~width:_ ~offset ~value =
  match offset with
  | 0 -> ()
  | 1 -> t.signature <- value land 0xff
  | 2 ->
      (* Bit 7 decodes index writes from interrupt-control writes. *)
      if value land 0x80 <> 0 then t.index <- (value lsr 5) land 0x3
      else t.irq_enabled <- value land 0x10 = 0
  | 3 -> t.config <- value land 0xff
  | _ -> ()

let model t =
  {
    Model.name = "logitech_busmouse";
    read = read t;
    write = write t;
    block = None;
  }
