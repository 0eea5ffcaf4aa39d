let ram_base = 0x4000
let ram_size = 0x4000

(* ISR bits *)
let isr_prx = 0x01
let isr_ptx = 0x02
let isr_rdc = 0x40
let isr_rst = 0x80

type t = {
  ram : Bytes.t;
  mutable started : bool;
  mutable txp : bool;
  mutable remote_op : int;  (* rd bits: 1 read, 2 write, 4 abort *)
  mutable page : int;
  mutable pstart : int;
  mutable pstop : int;
  mutable bnry : int;
  mutable tpsr : int;
  mutable tbcr : int;
  mutable isr : int;
  mutable imr : int;
  mutable rsar : int;
  mutable rbcr : int;
  mutable rcr : int;
  mutable tcr : int;
  mutable dcr : int;
  mutable curr : int;
  par : int array;
  mutable cntr : int array;
  mutable transmitted : string list;  (* reversed *)
}

let create () =
  {
    ram = Bytes.make 0x8000 '\000';
    started = false;
    txp = false;
    remote_op = 4;
    page = 0;
    pstart = 0x46;
    pstop = 0x80;
    bnry = 0x46;
    tpsr = 0x40;
    tbcr = 0;
    isr = 0;
    imr = 0;
    rsar = 0;
    rbcr = 0;
    rcr = 0;
    tcr = 0;
    dcr = 0;
    curr = 0x46;
    par = Array.make 6 0;
    cntr = Array.make 3 0;
    transmitted = [];
  }

let irq_asserted t = t.isr land t.imr <> 0
let take_transmitted t =
  let frames = List.rev t.transmitted in
  t.transmitted <- [];
  frames

let ram_ok addr = addr >= ram_base && addr < ram_base + ram_size

let ram_get t addr = if ram_ok addr then Char.code (Bytes.get t.ram addr) else 0xff
let ram_set t addr v =
  if ram_ok addr then Bytes.set t.ram addr (Char.chr (v land 0xff))

let ram_byte t addr = ram_get t addr

(* Deliver a frame into the receive ring with its 4-byte header. *)
let deliver t frame =
  let len = String.length frame + 4 in
  let pages_needed = (len + 255) / 256 in
  let ring_pages = t.pstop - t.pstart in
  let used =
    (t.curr - t.bnry + ring_pages) mod ring_pages
  in
  if pages_needed >= ring_pages - used then false
  else begin
    let start_page = t.curr in
    let next_page =
      let n = t.curr + pages_needed in
      if n >= t.pstop then t.pstart + (n - t.pstop) else n
    in
    (* Write header + payload, wrapping at pstop. *)
    let write_byte i v =
      let page = start_page + (i / 256) in
      let page = if page >= t.pstop then t.pstart + (page - t.pstop) else page in
      ram_set t ((page * 256) + (i mod 256)) v
    in
    write_byte 0 0x01;  (* receive status: PRX *)
    write_byte 1 next_page;
    write_byte 2 (len land 0xff);
    write_byte 3 ((len lsr 8) land 0xff);
    String.iteri (fun i c -> write_byte (4 + i) (Char.code c)) frame;
    t.curr <- next_page;
    t.isr <- t.isr lor isr_prx;
    true
  end

let inject_frame t frame = t.started && deliver t frame

let transmit t =
  let addr = t.tpsr * 256 in
  let len = if t.tbcr = 0 then 0 else t.tbcr in
  let frame = String.init len (fun i -> Char.chr (ram_get t (addr + i))) in
  t.txp <- false;
  t.isr <- t.isr lor isr_ptx;
  if t.tcr land 0x06 <> 0 then
    (* Loopback mode: hand the frame straight back to the receiver. *)
    ignore (deliver t frame)
  else t.transmitted <- frame :: t.transmitted

let cmd_byte t =
  (if t.started then 0x02 else 0x01)
  lor (if t.txp then 0x04 else 0)
  lor (t.remote_op lsl 3)
  lor (t.page lsl 6)

let write_cmd t v =
  t.page <- (v lsr 6) land 0x3;
  let st = v land 0x3 in
  if st = 0x1 then t.started <- false
  else if st = 0x2 then t.started <- true;
  let rd = (v lsr 3) land 0x7 in
  if rd <> 0 then t.remote_op <- rd;
  if rd land 0x4 <> 0 then t.remote_op <- 4;
  if v land 0x04 <> 0 && t.started then begin
    t.txp <- true;
    transmit t
  end

let data_read t =
  if t.remote_op = 1 && t.rbcr > 0 then begin
    let v = ram_get t t.rsar in
    t.rsar <- t.rsar + 1;
    t.rbcr <- t.rbcr - 1;
    if t.rbcr = 0 then begin
      t.isr <- t.isr lor isr_rdc;
      t.remote_op <- 4
    end;
    v
  end
  else 0xff

let data_write t v =
  if t.remote_op = 2 && t.rbcr > 0 then begin
    ram_set t t.rsar v;
    t.rsar <- t.rsar + 1;
    t.rbcr <- t.rbcr - 1;
    if t.rbcr = 0 then begin
      t.isr <- t.isr lor isr_rdc;
      t.remote_op <- 4
    end
  end

let read t ~width ~offset =
  let byte () =
    match (t.page, offset) with
    | _, 0 -> cmd_byte t
    | 0, 3 -> t.bnry
    | 0, 4 -> 0 (* TSR: clean transmit *)
    | 0, 7 -> t.isr
    | 0, 12 -> 0x01 (* RSR *)
    | 0, 13 -> t.cntr.(0)
    | 0, 14 -> t.cntr.(1)
    | 0, 15 -> t.cntr.(2)
    | 1, n when n >= 1 && n <= 6 -> t.par.(n - 1)
    | 1, 7 -> t.curr
    | _, 16 -> data_read t
    | _, 31 ->
        t.started <- false;
        t.isr <- t.isr lor isr_rst;
        0
    | _ -> 0xff
  in
  if width = 16 && offset = 16 then
    let lo = data_read t in
    let hi = data_read t in
    lo lor (hi lsl 8)
  else byte ()

let write t ~width ~offset ~value =
  let v = value land 0xff in
  let byte () =
    match (t.page, offset) with
    | _, 0 -> write_cmd t v
    | 0, 1 -> t.pstart <- v
    | 0, 2 -> t.pstop <- v
    | 0, 3 -> t.bnry <- v
    | 0, 4 -> t.tpsr <- v
    | 0, 5 -> t.tbcr <- (t.tbcr land 0xff00) lor v
    | 0, 6 -> t.tbcr <- (t.tbcr land 0x00ff) lor (v lsl 8)
    | 0, 7 -> t.isr <- t.isr land lnot v (* write 1 to acknowledge *)
    | 0, 8 -> t.rsar <- (t.rsar land 0xff00) lor v
    | 0, 9 -> t.rsar <- (t.rsar land 0x00ff) lor (v lsl 8)
    | 0, 10 -> t.rbcr <- (t.rbcr land 0xff00) lor v
    | 0, 11 -> t.rbcr <- (t.rbcr land 0x00ff) lor (v lsl 8)
    | 0, 12 -> t.rcr <- v
    | 0, 13 -> t.tcr <- v
    | 0, 14 -> t.dcr <- v
    | 0, 15 -> t.imr <- v
    | 1, n when n >= 1 && n <= 6 -> t.par.(n - 1) <- v
    | 1, 7 -> t.curr <- v
    | _, 16 -> data_write t v
    | _, 31 -> ()
    | _ -> ()
  in
  if width = 16 && offset = 16 then begin
    data_write t (value land 0xff);
    data_write t ((value lsr 8) land 0xff)
  end
  else byte ()

let model t =
  { Model.name = "ne2000"; read = read t; write = write t; block = None }
