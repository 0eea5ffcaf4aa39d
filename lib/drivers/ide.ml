module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

type data_path = [ `Loop | `Block ]
type io_width = [ `W16 | `W32 ]

let sector_bytes = 512

(* The ranges ide.mli states: 1 to 256 sectors (the count byte carries
   256 as 0), [mult >= 1], and a write's [data] exactly [count] sectors. *)
let check ?(mult = 1) ?data count =
  if count < 1 || count > 256 || mult < 1 then
    invalid_arg
      (Printf.sprintf "ide: %d sectors in blocks of %d; need 1-256 in 1 or more"
         count mult);
  match data with
  | Some d when Bytes.length d <> count * sector_bytes ->
      invalid_arg "ide write: data size mismatch"
  | _ -> ()

(* Stub elements against the bytes they carry, little-endian as
   [rep insw] and [rep insd] lay them down: a 16-bit word per element at
   [`W16], a 32-bit dword at [`W32]. *)
let elem_bytes = function `W16 -> 2 | `W32 -> 4

let[@inline] set_elem width b pos v =
  match width with
  | `W16 -> Bytes.set_uint16_le b pos v
  | `W32 -> Bytes.set_int32_le b pos (Int32.of_int v)

let[@inline] get_elem width b pos =
  match width with
  | `W16 -> Bytes.get_uint16_le b pos
  | `W32 -> Int32.to_int (Bytes.get_int32_le b pos) land 0xffff_ffff

(* [elems] laid down in [b] from byte [pos]. *)
let unpack width elems b ~pos =
  let size = elem_bytes width in
  for i = 0 to Array.length elems - 1 do
    set_elem width b (pos + (i * size)) elems.(i)
  done

(* The elements in [len] bytes of [b] from byte [pos]. *)
let pack width b ~pos ~len =
  let size = elem_bytes width in
  let elems = Array.make (len / size) 0 in
  for i = 0 to Array.length elems - 1 do
    elems.(i) <- get_elem width b (pos + (i * size))
  done;
  elems

(* The data phase of a PIO command: [count] sectors in DRQ blocks of
   [mult], each waited for with [wait_drq], then [move]d as [len] bytes
   from byte [pos] of the command's data. *)
let pio_blocks ~count ~mult ~wait_drq ~move =
  let s = ref 0 in
  while !s < count do
    let n = min mult (count - !s) in
    wait_drq ();
    move ~pos:(!s * sector_bytes) ~len:(n * sector_bytes);
    s := !s + n
  done

module Devil_driver = struct
  type t = {
    ide : Instance.t;
    piix4 : Instance.t;
    ctx : Devil_runtime.Ctx.t option;  (* the instances' machine *)
  }

  let create ~ide ~piix4 = { ide; piix4; ctx = Instance.ctx ide }

  let get_bool t name =
    match Instance.get t.ide name with
    | Value.Bool b -> b
    | v ->
        Policy.fail
          (Policy.Device_fault
             (name ^ ": expected bool, got " ^ Value.to_string v))

  (* One status poll through the generated struct interface. *)
  let poll_status t =
    Instance.get_struct t.ide "ide_status";
    (get_bool t "bsy", get_bool t "drq")

  let wait_not_busy t =
    Policy.poll_until ?ctx:t.ctx ~label:"ide: BSY clear" (fun () ->
        let bsy, _ = poll_status t in
        not bsy)

  let wait_drq t =
    (* The per-interrupt service path of the Devil driver: the status
       structure, the error variable and the alternate status are
       distinct interface entities, each costing one I/O operation
       (paper §4.3: "2 additional operations for each interrupt"). *)
    Policy.poll_until ?ctx:t.ctx ~label:"ide: DRQ" (fun () ->
        let bsy, drq = poll_status t in
        (not bsy) && drq);
    (match Instance.get t.ide "error_flags" with
    | Value.Int 0 -> ()
    | Value.Int e ->
        Policy.fail
          (Policy.Device_fault (Printf.sprintf "ide: device error %#x" e))
    | _ -> ());
    ignore (Instance.get t.ide "alt_status")

  let setup_command t ~lba ~count ~cmd =
    wait_not_busy t;
    Instance.set t.ide "sector_count" (Value.Int (count land 0xff));
    Instance.set t.ide "lba_low" (Value.Int (lba land 0xff));
    Instance.set t.ide "lba_mid" (Value.Int ((lba lsr 8) land 0xff));
    Instance.set t.ide "lba_high" (Value.Int ((lba lsr 16) land 0xff));
    Instance.set t.ide "lba_enable" (Value.Enum "LBA_MODE");
    Instance.set t.ide "drive_select" (Value.Enum "MASTER");
    Instance.set t.ide "head" (Value.Int ((lba lsr 24) land 0xf));
    Instance.set t.ide "irq_enable" (Value.Enum "IRQ_ON");
    Instance.set t.ide "command" (Value.Enum cmd)

  (* One DRQ block between the data port and [len] bytes of [b] from
     byte [pos]. *)
  let read_data t ~path ~width b ~pos ~len =
    let size = elem_bytes width in
    let scale = size / 2 and count = len / size in
    match (path, width) with
    | `Block, _ ->
        unpack width
          (Instance.read_block_wide t.ide "Ide_data" ~scale ~count)
          b ~pos
    | `Loop, `W16 ->
        for i = 0 to count - 1 do
          set_elem width b (pos + (i * size))
            (match Instance.get t.ide "Ide_data" with Value.Int w -> w | _ -> 0)
        done
    | `Loop, `W32 ->
        for i = 0 to count - 1 do
          set_elem width b (pos + (i * size))
            (Instance.read_wide t.ide "Ide_data" ~scale)
        done

  let write_data t ~path ~width b ~pos ~len =
    let size = elem_bytes width in
    let scale = size / 2 in
    match (path, width) with
    | `Block, _ ->
        Instance.write_block_wide t.ide "Ide_data" ~scale
          (pack width b ~pos ~len)
    | `Loop, `W16 ->
        for i = 0 to (len / size) - 1 do
          Instance.set t.ide "Ide_data"
            (Value.Int (get_elem width b (pos + (i * size))))
        done
    | `Loop, `W32 ->
        for i = 0 to (len / size) - 1 do
          Instance.write_wide t.ide "Ide_data" ~scale
            (get_elem width b (pos + (i * size)))
        done

  let set_features t v =
    Instance.set t.ide "features" (Value.Int (v land 0xff))

  (* The error-locate path of a real driver: the task file still
     addresses the block a command stopped at, so reading it back
     after a failure names the failing sector. *)
  let read_task_file t =
    let geti name =
      match Instance.get t.ide name with Value.Int n -> n | _ -> 0
    in
    ignore (Instance.get t.ide "drive_select");
    let count = geti "sector_count" in
    let lba =
      geti "lba_low"
      lor (geti "lba_mid" lsl 8)
      lor (geti "lba_high" lsl 16)
      lor (geti "head" lsl 24)
    in
    (count, lba)

  let identify t =
    wait_not_busy t;
    Instance.set t.ide "command" (Value.Enum "IDENTIFY");
    wait_drq t;
    let data = Bytes.create sector_bytes in
    read_data t ~path:`Block ~width:`W16 data ~pos:0 ~len:sector_bytes;
    (* The model name, words 27-46: two characters a word, the first in
       the high byte. *)
    let name = Buffer.create 40 in
    for i = 54 to 93 do
      let c = Bytes.get data (i lxor 1) in
      if c >= ' ' && c < '\127' then Buffer.add_char name c
    done;
    String.trim (Buffer.contents name)

  (* Sectors arrive in DRQ blocks of [mult] sectors (hdparm -m); the
     driver services one interrupt per block.

     The whole command is the retry unit: issuing a fresh READ/WRITE
     SECTORS resets the device's transfer state, so a transient bus
     fault anywhere in the exchange — status poll, task-file write or
     data burst — is recovered by starting over with bounded
     attempts. *)
  let read_sectors t ~lba ~count ~mult ~path ~width =
    check ~mult count;
    Policy.with_retries ?ctx:t.ctx ~label:"ide: read_sectors" (fun () ->
        setup_command t ~lba ~count ~cmd:"READ_SECTORS";
        let data = Bytes.create (count * sector_bytes) in
        pio_blocks ~count ~mult ~wait_drq:(fun () -> wait_drq t)
          ~move:(read_data t ~path ~width data);
        data)

  let write_sectors t ~lba ~count ~mult ~path ~width data =
    check ~mult ~data count;
    Policy.with_retries ?ctx:t.ctx ~label:"ide: write_sectors" (fun () ->
        setup_command t ~lba ~count ~cmd:"WRITE_SECTORS";
        pio_blocks ~count ~mult ~wait_drq:(fun () -> wait_drq t)
          ~move:(write_data t ~path ~width data))

  let bm_wait_irq t =
    Policy.poll_until ?ctx:t.ctx ~label:"ide dma: IRQ" (fun () ->
        match Instance.get t.piix4 "bm_irq" with
        | Value.Enum "RAISED" -> true
        | _ -> false)

  let dma_common t ~lba ~count ~to_memory ~cmd =
    setup_command t ~lba ~count ~cmd;
    Instance.set t.piix4 "prd_address" (Value.Int 0);
    Instance.set t.piix4 "bm_direction"
      (Value.Enum (if to_memory then "BM_TO_MEMORY" else "BM_FROM_MEMORY"));
    Instance.set t.piix4 "bm_engine" (Value.Enum "BM_START");
    bm_wait_irq t;
    Instance.set t.piix4 "bm_irq" (Value.Enum "CLEAR_IRQ");
    Instance.set t.piix4 "bm_engine" (Value.Enum "BM_STOP")

  let read_dma t ~memory ~lba ~count =
    check count;
    Policy.with_retries ?ctx:t.ctx ~label:"ide: read_dma" (fun () ->
        dma_common t ~lba ~count ~to_memory:true ~cmd:"READ_DMA");
    Bytes.sub memory 0 (count * sector_bytes)

  let write_dma t ~memory ~lba ~count data =
    check ~data count;
    Bytes.blit data 0 memory 0 (Bytes.length data);
    Policy.with_retries ?ctx:t.ctx ~label:"ide: write_dma" (fun () ->
        dma_common t ~lba ~count ~to_memory:false ~cmd:"WRITE_DMA")
end

module Handcrafted = struct
  type t = {
    bus : Devil_runtime.Bus.t;
    cmd_base : int;
    ctrl_base : int;
    bm_base : int;
    prd_base : int;
  }

  let create bus ~cmd_base ~ctrl_base ~bm_base ~prd_base =
    { bus; cmd_base; ctrl_base; bm_base; prd_base }

  let outb t base off v =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:(base + off) ~value:v

  let inb t base off = t.bus.Devil_runtime.Bus.read ~width:8 ~addr:(base + off)

  let wait_not_busy t =
    Policy.poll_until ~label:"ide: BSY clear" (fun () ->
        inb t t.cmd_base 7 land 0x80 = 0)

  (* The original driver's interrupt service: one status read. *)
  let wait_drq t =
    Policy.poll_until ~label:"ide: DRQ" (fun () ->
        let st = inb t t.cmd_base 7 in
        if st land 0x01 <> 0 then
          Policy.fail (Policy.Device_fault "ide: device error");
        st land 0x88 = 0x08)

  let setup_command t ~lba ~count ~cmd =
    wait_not_busy t;
    outb t t.cmd_base 2 (count land 0xff);
    outb t t.cmd_base 3 (lba land 0xff);
    outb t t.cmd_base 4 ((lba lsr 8) land 0xff);
    outb t t.cmd_base 5 ((lba lsr 16) land 0xff);
    outb t t.cmd_base 6 (0xe0 lor ((lba lsr 24) land 0xf));
    outb t t.cmd_base 7 cmd

  (* One DRQ block between the data port and [len] bytes of [b] from
     byte [pos]. *)
  let read_data t ~path ~width b ~pos ~len =
    let size = elem_bytes width in
    let width_bits = 8 * size and addr = t.cmd_base in
    match path with
    | `Block ->
        let into = Array.make (len / size) 0 in
        t.bus.Devil_runtime.Bus.read_block ~width:width_bits ~addr ~into;
        unpack width into b ~pos
    | `Loop ->
        for i = 0 to (len / size) - 1 do
          set_elem width b (pos + (i * size))
            (t.bus.Devil_runtime.Bus.read ~width:width_bits ~addr)
        done

  let write_data t ~path ~width b ~pos ~len =
    let size = elem_bytes width in
    let width_bits = 8 * size and addr = t.cmd_base in
    match path with
    | `Block ->
        t.bus.Devil_runtime.Bus.write_block ~width:width_bits ~addr
          ~from:(pack width b ~pos ~len)
    | `Loop ->
        for i = 0 to (len / size) - 1 do
          t.bus.Devil_runtime.Bus.write ~width:width_bits ~addr
            ~value:(get_elem width b (pos + (i * size)))
        done

  let read_sectors t ~lba ~count ~mult ~path ~width =
    check ~mult count;
    Policy.with_retries ~label:"ide: read_sectors" (fun () ->
        setup_command t ~lba ~count ~cmd:0x20;
        let data = Bytes.create (count * sector_bytes) in
        pio_blocks ~count ~mult ~wait_drq:(fun () -> wait_drq t)
          ~move:(read_data t ~path ~width data);
        data)

  let write_sectors t ~lba ~count ~mult ~path ~width data =
    check ~mult ~data count;
    Policy.with_retries ~label:"ide: write_sectors" (fun () ->
        setup_command t ~lba ~count ~cmd:0x30;
        pio_blocks ~count ~mult ~wait_drq:(fun () -> wait_drq t)
          ~move:(write_data t ~path ~width data))

  let bm_wait_irq t =
    Policy.poll_until ~label:"ide dma: IRQ" (fun () ->
        inb t t.bm_base 2 land 0x04 <> 0)

  let dma_common t ~lba ~count ~to_memory ~cmd =
    setup_command t ~lba ~count ~cmd;
    t.bus.Devil_runtime.Bus.write ~width:32 ~addr:t.prd_base ~value:0;
    outb t t.bm_base 0 (if to_memory then 0x08 else 0x00);
    outb t t.bm_base 0 (if to_memory then 0x09 else 0x01);
    bm_wait_irq t;
    outb t t.bm_base 2 0x04;
    outb t t.bm_base 0 0x00

  let read_dma t ~memory ~lba ~count =
    check count;
    Policy.with_retries ~label:"ide: read_dma" (fun () ->
        dma_common t ~lba ~count ~to_memory:true ~cmd:0xc8);
    Bytes.sub memory 0 (count * sector_bytes)

  let write_dma t ~memory ~lba ~count data =
    check ~data count;
    Bytes.blit data 0 memory 0 (Bytes.length data);
    Policy.with_retries ~label:"ide: write_dma" (fun () ->
        dma_common t ~lba ~count ~to_memory:false ~cmd:0xca)
end

(* The queued, interrupt-driven DMA driver: commands are submitted to
   a Devil_runtime.Sched FIFO and the busmaster-complete interrupt —
   not a status poll — finishes each one, so while a transfer is on
   the wire the only I/O the driver performs is the interrupt
   acknowledge path. The synchronous driver's failure taxonomy is
   preserved: a transient engine fault re-issues the command up to
   Policy.default_attempts (exhaustion degrades), and a lost interrupt
   surfaces as the same classified [Timeout] a poll would raise. *)
module Async = struct
  module Sched = Devil_runtime.Sched

  let dev = "ide"

  type op = {
    op_lba : int;
    op_count : int;
    op_to_memory : bool;
    op_data : Bytes.t option;  (* write payload, re-blitted on re-issue *)
    op_on_data : (Bytes.t -> unit) option;
    mutable op_attempts : int;  (* command re-issues consumed so far *)
  }

  type t = {
    drv : Devil_driver.t;
    memory : Bytes.t;
    sched : Sched.t;
    ops : op Queue.t;  (* mirrors the scheduler's FIFO for this device *)
  }

  (* Issuing is the retry unit, exactly as in the synchronous driver:
     a fresh command resets the device's transfer state. *)
  let issue t op =
    (match op.op_data with
    | Some data -> Bytes.blit data 0 t.memory 0 (Bytes.length data)
    | None -> ());
    Devil_driver.setup_command t.drv ~lba:op.op_lba ~count:op.op_count
      ~cmd:(if op.op_to_memory then "READ_DMA" else "WRITE_DMA");
    let p = t.drv.Devil_driver.piix4 in
    Instance.set p "prd_address" (Value.Int 0);
    Instance.set p "bm_direction"
      (Value.Enum (if op.op_to_memory then "BM_TO_MEMORY" else "BM_FROM_MEMORY"));
    Instance.set p "bm_engine" (Value.Enum "BM_START")

  let stop_engine t =
    Instance.set t.drv.Devil_driver.piix4 "bm_engine" (Value.Enum "BM_STOP")

  (* The interrupt service routine: check the engine, clear both
     interrupt sources (the busmaster status bit and, via the status
     read, the disk's INTRQ), then complete — or re-issue — the
     in-flight command. *)
  let handle t () =
    let p = t.drv.Devil_driver.piix4 in
    let irq_raised =
      match Instance.get p "bm_irq" with Value.Enum "RAISED" -> true | _ -> false
    in
    ignore (Devil_driver.poll_status t.drv);
    if irq_raised then begin
      let engine_fault =
        match Instance.get p "bm_error" with
        | Value.Enum "FAULT" -> true
        | _ -> false
      in
      Instance.set p "bm_irq" (Value.Enum "CLEAR_IRQ");
      Instance.set p "bm_engine" (Value.Enum "BM_STOP");
      match Queue.peek_opt t.ops with
      | None ->
          (* A late interrupt whose request already timed out: complete
             into the empty queue so the loop accounts it as unhandled. *)
          Sched.complete t.sched ~dev (Ok ())
      | Some op ->
          if engine_fault then
            if op.op_attempts + 1 < Policy.default_attempts then begin
              op.op_attempts <- op.op_attempts + 1;
              issue t op
            end
            else
              Sched.complete t.sched ~dev
                (Error
                   (Policy.Degraded
                      "ide dma: engine fault, attempts exhausted"))
          else begin
            (match op.op_on_data with
            | Some f -> f (Bytes.sub t.memory 0 (op.op_count * sector_bytes))
            | None -> ());
            Sched.complete t.sched ~dev (Ok ())
          end
    end

  let create ~sched ~line ~memory ~ide ~piix4 =
    let t =
      {
        drv = Devil_driver.create ~ide ~piix4;
        memory;
        sched;
        ops = Queue.create ();
      }
    in
    Sched.set_handler sched ~line ~dev (handle t);
    t

  let submit t ~label op =
    Queue.add op t.ops;
    Sched.submit t.sched ~dev ~label
      ~start:(fun () ->
        Policy.with_retries ?ctx:t.drv.Devil_driver.ctx ~label (fun () ->
            issue t op))
      ~abort:(fun () -> stop_engine t)
      ~on_done:(fun _ -> ignore (Queue.take_opt t.ops))
      ()

  let read_dma t ~lba ~count ?on_data () =
    check count;
    submit t ~label:"ide: read_dma"
      {
        op_lba = lba;
        op_count = count;
        op_to_memory = true;
        op_data = None;
        op_on_data = on_data;
        op_attempts = 0;
      }

  let write_dma t ~lba ~count data =
    check ~data count;
    submit t ~label:"ide: write_dma"
      {
        op_lba = lba;
        op_count = count;
        op_to_memory = false;
        op_data = Some data;
        op_on_data = None;
        op_attempts = 0;
      }

  let await t rq = Sched.await t.sched rq
  let drain t = Sched.drain t.sched
  let request_id = Sched.request_id
end
