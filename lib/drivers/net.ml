module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

let tx_page = 0x40
let rx_start = 0x46
let rx_stop = 0x80

(* Copy the body of the frame whose ring header sits at page [bnry]
   out of the receive ring: the body starts 4 bytes past the header
   and, when it reaches [rx_stop], wraps to [rx_start]. [read] is the
   driver's remote-DMA read. Both drivers reassemble through this one
   helper, so a frame that straddles the ring end comes back
   byte-identical whichever driver drained it. *)
let ring_copy ~read ~bnry ~body_len =
  let start = (bnry * 256) + 4 in
  let ring_end = rx_stop * 256 in
  if start + body_len <= ring_end then read ~addr:start ~len:body_len
  else begin
    let first = ring_end - start in
    let a = read ~addr:start ~len:first in
    let b = read ~addr:(rx_start * 256) ~len:(body_len - first) in
    Bytes.cat a b
  end

let get_int inst name =
  match Instance.get inst name with
  | Value.Int v -> v
  | v ->
      Policy.fail
        (Policy.Device_fault (name ^ ": expected int, got " ^ Value.to_string v))

module Devil_driver = struct
  type t = Instance.t

  let create inst = inst

  let remote_setup t ~addr ~len ~op =
    Instance.set t "remote_start" (Value.Int addr);
    Instance.set t "remote_count" (Value.Int len);
    Instance.set t "rd" (Value.Enum op)

  let remote_read t ~addr ~len =
    remote_setup t ~addr ~len ~op:"REMOTE_READ";
    let bytes = Instance.read_block t "remote_data" ~count:len in
    Bytes.init len (fun i -> Char.chr (bytes.(i) land 0xff))

  let remote_write t ~addr data =
    let len = String.length data in
    remote_setup t ~addr ~len ~op:"REMOTE_WRITE";
    Instance.write_block t "remote_data"
      (Array.init len (fun i -> Char.code data.[i]))

  let ack_interrupts t =
    Instance.set_struct t "interrupt_status"
      [
        ("prx", Value.Enum "CLEAR_PRX");
        ("ptx", Value.Enum "CLEAR_PTX");
        ("rxe", Value.Enum "CLEAR_RXE");
        ("txe", Value.Enum "CLEAR_TXE");
        ("ovw", Value.Enum "CLEAR_OVW");
        ("cnt", Value.Enum "CLEAR_CNT");
        ("rdc", Value.Enum "CLEAR_RDC");
        ("rst", Value.Enum "CLEAR_RST");
      ]

  let init_common t ~mac ~loopback =
    if String.length mac <> 6 then invalid_arg "NE2000 MAC must be 6 bytes";
    Instance.set t "st" (Value.Enum "STOP");
    Instance.set t "word_transfer" (Value.Enum "BYTE_WIDE");
    Instance.set t "byte_order" (Value.Bool false);
    Instance.set t "long_address" (Value.Bool false);
    Instance.set t "loopback_select" (Value.Enum "NORMAL_OP");
    Instance.set t "auto_init" (Value.Bool false);
    Instance.set t "fifo_threshold" (Value.Int 2);
    Instance.set t "remote_count" (Value.Int 0);
    Instance.set t "accept_broadcast" (Value.Bool true);
    Instance.set t "accept_errors" (Value.Bool false);
    Instance.set t "accept_runts" (Value.Bool false);
    Instance.set t "accept_multicast" (Value.Bool false);
    Instance.set t "promiscuous" (Value.Bool false);
    Instance.set t "monitor" (Value.Bool false);
    Instance.set t "inhibit_crc" (Value.Bool false);
    Instance.set t "loopback_mode" (Value.Int (if loopback then 1 else 0));
    Instance.set t "auto_transmit" (Value.Bool false);
    Instance.set t "collision_offset" (Value.Bool false);
    Instance.set t "page_start" (Value.Int rx_start);
    Instance.set t "page_stop" (Value.Int rx_stop);
    Instance.set t "boundary" (Value.Int rx_start);
    (* Station address and CURR live in page 1; the pre-actions switch
       pages transparently. *)
    String.iteri
      (fun i c ->
        Instance.set t (Printf.sprintf "mac%d" i) (Value.Int (Char.code c)))
      mac;
    Instance.set t "current_page" (Value.Int rx_start);
    ack_interrupts t;
    Instance.set t "irq_mask" (Value.Int 0x3f);
    Instance.set t "st" (Value.Enum "START")

  (* Bring-up is pure configuration plus STOP/START, so the whole
     sequence is idempotent and retried as one unit when the bus
     faults transiently. *)
  let init t ~mac =
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"net: init" (fun () ->
        init_common t ~mac ~loopback:false)

  let init_loopback t ~mac =
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"net: init" (fun () ->
        init_common t ~mac ~loopback:true)

  let station_address t =
    String.init 6 (fun i -> Char.chr (get_int t (Printf.sprintf "mac%d" i)))

  let send t frame =
    (* A transient fault aborts the access before it reaches the NIC,
       so no partial frame has been committed when we start over; the
       TRANSMIT trigger is the last write of the sequence. *)
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"net: send" (fun () ->
        remote_write t ~addr:(tx_page * 256) frame;
        Instance.set t "tx_page_start" (Value.Int tx_page);
        Instance.set t "tx_byte_count" (Value.Int (String.length frame));
        Instance.set t "txp" (Value.Enum "TRANSMIT"))

  let receive t =
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"net: receive" @@ fun () ->
    let curr = get_int t "current_page" in
    let bnry = get_int t "boundary" in
    if curr = bnry then None
    else begin
      let header = remote_read t ~addr:(bnry * 256) ~len:4 in
      let next = Char.code (Bytes.get header 1) in
      let len =
        Char.code (Bytes.get header 2)
        lor (Char.code (Bytes.get header 3) lsl 8)
      in
      let body_len = max 0 (len - 4) in
      let frame = ring_copy ~read:(remote_read t) ~bnry ~body_len in
      Instance.set t "boundary" (Value.Int next);
      Instance.set t "prx" (Value.Enum "CLEAR_PRX");
      Some (Bytes.to_string frame)
    end
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; base : int }

  let create bus ~base = { bus; base }

  let outb t off v =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:(t.base + off) ~value:v

  let inb t off = t.bus.Devil_runtime.Bus.read ~width:8 ~addr:(t.base + off)

  (* Command register values, macro style. *)
  let e8390_stop = 0x21 (* page 0, NODMA, stop *)
  let e8390_start = 0x22
  let e8390_rread = 0x0a (* remote read + start *)
  let e8390_rwrite = 0x12
  let e8390_trans = 0x26
  let e8390_page1 = 0x62

  let remote_setup t ~addr ~len =
    outb t 8 (addr land 0xff);
    outb t 9 ((addr lsr 8) land 0xff);
    outb t 10 (len land 0xff);
    outb t 11 ((len lsr 8) land 0xff)

  let remote_read t ~addr ~len =
    remote_setup t ~addr ~len;
    outb t 0 e8390_rread;
    Bytes.init len (fun _ -> Char.chr (inb t 16))

  let remote_write t ~addr data =
    remote_setup t ~addr ~len:(String.length data);
    outb t 0 e8390_rwrite;
    String.iter (fun c -> outb t 16 (Char.code c)) data

  let init_common t ~mac ~loopback =
    if String.length mac <> 6 then invalid_arg "NE2000 MAC must be 6 bytes";
    outb t 0 e8390_stop;
    outb t 14 0x48;  (* DCR: byte-wide, normal operation, fifo 2 *)
    outb t 10 0;
    outb t 11 0;
    outb t 12 0x04;  (* RCR: accept broadcast *)
    outb t 13 (if loopback then 0x02 else 0x00);
    outb t 1 rx_start;
    outb t 2 rx_stop;
    outb t 3 rx_start;
    outb t 0 e8390_page1;
    String.iteri (fun i c -> outb t (1 + i) (Char.code c)) mac;
    outb t 7 rx_start;
    outb t 0 e8390_stop;
    outb t 7 0xff;  (* ack ISR *)
    outb t 15 0x3f;  (* IMR *)
    outb t 0 e8390_start

  let init t ~mac = init_common t ~mac ~loopback:false
  let init_loopback t ~mac = init_common t ~mac ~loopback:true

  let station_address t =
    outb t 0 e8390_page1;
    let mac = String.init 6 (fun i -> Char.chr (inb t (1 + i))) in
    outb t 0 e8390_start;
    mac

  let send t frame =
    remote_write t ~addr:(tx_page * 256) frame;
    outb t 4 tx_page;
    outb t 5 (String.length frame land 0xff);
    outb t 6 ((String.length frame lsr 8) land 0xff);
    outb t 0 e8390_trans

  let receive t =
    outb t 0 e8390_page1;
    let curr = inb t 7 in
    outb t 0 e8390_start;
    let bnry = inb t 3 in
    if curr = bnry then None
    else begin
      let header = remote_read t ~addr:(bnry * 256) ~len:4 in
      let next = Char.code (Bytes.get header 1) in
      let len =
        Char.code (Bytes.get header 2)
        lor (Char.code (Bytes.get header 3) lsl 8)
      in
      let body_len = max 0 (len - 4) in
      let frame = ring_copy ~read:(remote_read t) ~bnry ~body_len in
      outb t 3 next;
      outb t 7 0x01;  (* ack PRX *)
      Some (Bytes.to_string frame)
    end
end

(* The interrupt-driven NE2000 driver: the receive ring is drained in
   a burst when the PRX interrupt fires, and transmissions are queued
   requests completed by the PTX interrupt — the driver never polls
   CURR/BNRY while idle. *)
module Async = struct
  module Sched = Devil_runtime.Sched

  let dev = "ne2000"

  type t = {
    drv : Devil_driver.t;
    sched : Sched.t;
    mutable on_frame : string -> unit;
    mutable tx_inflight : bool;
  }

  let handle t () =
    let raised name tag =
      match Instance.get t.drv name with
      | Value.Enum e -> e = tag
      | _ -> false
    in
    let prx = raised "prx" "RAISED_PRX" in
    let ptx = raised "ptx" "RAISED_PTX" in
    (if prx then
       (* Burst drain: one interrupt services every frame the ring
          holds, however many arrived since the last one. *)
       let rec drain () =
         match Devil_driver.receive t.drv with
         | Some frame ->
             t.on_frame frame;
             drain ()
         | None -> ()
       in
       drain ());
    Devil_driver.ack_interrupts t.drv;
    if ptx && t.tx_inflight then begin
      t.tx_inflight <- false;
      Sched.complete t.sched ~dev (Ok ())
    end

  let create ~sched ~line inst =
    let t =
      {
        drv = Devil_driver.create inst;
        sched;
        on_frame = ignore;
        tx_inflight = false;
      }
    in
    Sched.set_handler sched ~line ~dev (handle t);
    t

  let on_frame t f = t.on_frame <- f

  let send t frame =
    Sched.submit t.sched ~dev ~label:"net: send"
      ~start:(fun () ->
        Devil_driver.send t.drv frame;
        t.tx_inflight <- true)
      ~on_done:(fun _ -> t.tx_inflight <- false)
      ()

  let await t rq = Sched.await t.sched rq
  let drain t = Sched.drain t.sched
  let request_id = Sched.request_id
end
