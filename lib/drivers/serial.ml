module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

let clock = 115200

module Devil_driver = struct
  type t = Instance.t

  let create inst = inst

  (* Pure configuration, so the whole sequence is idempotent and can
     be retried as one unit when the bus faults transiently. *)
  let init t ~baud =
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"serial: init" @@ fun () ->
    (* The divisor variable's serialization writes DLL then DLM; its
       pre-actions raise DLAB around the access transparently. *)
    Instance.set t "divisor" (Value.Int (clock / baud));
    Instance.set t "word_length" (Value.Enum "BITS8");
    Instance.set t "two_stop_bits" (Value.Bool false);
    Instance.set t "parity_mode" (Value.Int 0);
    Instance.set t "break_control" (Value.Bool false);
    Instance.set t "fifo_enable" (Value.Bool true);
    Instance.set t "rx_fifo_reset" (Value.Bool true);
    Instance.set t "tx_fifo_reset" (Value.Bool true);
    Instance.set t "rx_trigger_level" (Value.Int 2);
    Instance.set t "dtr" (Value.Bool true);
    Instance.set t "rts" (Value.Bool true)

  let configured_baud t =
    match Instance.get t "divisor" with
    | Value.Int d when d > 0 -> clock / d
    | _ -> 0

  let send t s =
    Instance.write_block t "tx_data"
      (Array.init (String.length s) (fun i -> Char.code s.[i]))

  let data_ready t =
    Instance.get_struct t "line_status";
    match Instance.get t "data_ready" with
    | Value.Bool b -> b
    | _ -> false

  let recv t ~max =
    let buf = Buffer.create max in
    let rec go n =
      if n > 0 && data_ready t then begin
        (match Instance.get t "rx_data" with
        | Value.Int c -> Buffer.add_char buf (Char.chr (c land 0xff))
        | _ -> ());
        go (n - 1)
      end
    in
    go max;
    Buffer.contents buf

  (* Like {!recv}, but waits for each byte under a uniform poll
     deadline instead of giving up on the first empty FIFO read. *)
  let recv_blocking ?deadline t ~max =
    let buf = Buffer.create max in
    (try
       for _ = 1 to max do
         Policy.poll_until ?ctx:(Instance.ctx t) ?deadline
           ~label:"serial: RX data" (fun () -> data_ready t);
         match Instance.get t "rx_data" with
         | Value.Int c -> Buffer.add_char buf (Char.chr (c land 0xff))
         | _ -> ()
       done
     with Policy.Driver_error (Policy.Timeout _) -> ());
    Buffer.contents buf

  let set_loopback t on = Instance.set t "loopback" (Value.Bool on)

  let reset_fifos t =
    Instance.set t "rx_fifo_reset" (Value.Bool true);
    Instance.set t "tx_fifo_reset" (Value.Bool true)

  let self_test t =
    (* Each attempt starts from clean FIFOs, so a retry after a
       transient fault does not read a stale partial pattern. *)
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"serial: self-test"
      (fun () ->
        reset_fifos t;
        set_loopback t true;
        let pattern = "\x55\xaa\x5a\xa5devil" in
        send t pattern;
        let back = recv_blocking ~deadline:64 t ~max:(String.length pattern) in
        set_loopback t false;
        String.equal back pattern)
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; base : int }

  let create bus ~base = { bus; base }

  let outb t off v =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:(t.base + off) ~value:v

  let inb t off = t.bus.Devil_runtime.Bus.read ~width:8 ~addr:(t.base + off)

  let init t ~baud =
    let divisor = clock / baud in
    outb t 3 0x80;  (* DLAB on *)
    outb t 0 (divisor land 0xff);
    outb t 1 ((divisor lsr 8) land 0xff);
    outb t 3 0x03;  (* 8N1, DLAB off *)
    outb t 2 0x87;  (* FIFO enable + reset, trigger 8 *)
    outb t 4 0x03  (* DTR | RTS *)

  let send t s = String.iter (fun c -> outb t 0 (Char.code c)) s

  let data_ready t = inb t 5 land 0x01 <> 0

  let recv t ~max =
    let buf = Buffer.create max in
    let rec go n =
      if n > 0 && data_ready t then begin
        Buffer.add_char buf (Char.chr (inb t 0));
        go (n - 1)
      end
    in
    go max;
    Buffer.contents buf

  let recv_blocking ?deadline t ~max =
    let buf = Buffer.create max in
    (try
       for _ = 1 to max do
         Policy.poll_until ?deadline ~label:"serial: RX data" (fun () ->
             data_ready t);
         Buffer.add_char buf (Char.chr (inb t 0))
       done
     with Policy.Driver_error (Policy.Timeout _) -> ());
    Buffer.contents buf

  let set_loopback t on =
    let mcr = inb t 4 in
    outb t 4 (if on then mcr lor 0x10 else mcr land lnot 0x10)

  let self_test t =
    Policy.with_retries ~label:"serial: self-test" (fun () ->
        outb t 2 0x87;  (* FIFO enable + reset before each attempt *)
        set_loopback t true;
        let pattern = "\x55\xaa\x5a\xa5devil" in
        send t pattern;
        let back = recv_blocking ~deadline:64 t ~max:(String.length pattern) in
        set_loopback t false;
        String.equal back pattern)
end
