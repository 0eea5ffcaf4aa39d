let sector_bytes = 512

type phase =
  | Idle
  | Pio_read of { mutable remaining : int }  (* sectors after current buffer *)
  | Pio_write of { mutable remaining : int; mutable lba : int }
  | Dma_read of int * int  (* lba, count *)
  | Dma_write of int * int

type t = {
  sectors : int;
  store : (int, Bytes.t) Hashtbl.t;
  (* task file *)
  mutable features : int;
  mutable sector_count : int;
  mutable lba_low : int;
  mutable lba_mid : int;
  mutable lba_high : int;
  mutable drive_head : int;
  mutable error : int;
  mutable irq : bool;
  mutable irq_count : int;
  mutable irq_enabled : bool;
  mutable multiple : int;
  mutable phase : phase;
  (* PIO transfer buffer: the current DRQ block is the first [buf_len]
     bytes of [buf], which the first PIO command allocates and later
     ones reuse, growing it for a longer block. *)
  mutable buf : Bytes.t;
  mutable buf_len : int;
  mutable buf_pos : int;  (* the next byte the data port moves *)
  mutable next_lba : int;  (* next LBA to load into the read buffer *)
}

let create ?(sectors = 65536) () =
  {
    sectors;
    store = Hashtbl.create 1024;
    features = 0;
    sector_count = 0;
    lba_low = 0;
    lba_mid = 0;
    lba_high = 0;
    drive_head = 0xa0;
    error = 0;
    irq = false;
    irq_count = 0;
    irq_enabled = true;
    multiple = 1;
    phase = Idle;
    buf = Bytes.empty;
    buf_len = 0;
    buf_pos = 0;
    next_lba = 0;
  }

let set_multiple t n = t.multiple <- max 1 n
let irq_pending t = t.irq

let take_irq t =
  let was = t.irq in
  t.irq <- false;
  was

let read_sector t ~lba =
  match Hashtbl.find_opt t.store lba with
  | Some b -> Bytes.copy b
  | None -> Bytes.make sector_bytes '\000'

let write_sector t ~lba data =
  if Bytes.length data <> sector_bytes then
    invalid_arg "Ide_disk.write_sector: need exactly one sector";
  Hashtbl.replace t.store lba (Bytes.copy data)

let current_lba t =
  t.lba_low lor (t.lba_mid lsl 8) lor (t.lba_high lsl 16)
  lor ((t.drive_head land 0xf) lsl 24)

let raise_irq t =
  if t.irq_enabled then begin
    t.irq <- true;
    t.irq_count <- t.irq_count + 1
  end

let irq_count t = t.irq_count
let reset_irq_count t = t.irq_count <- 0

(* Makes the buffer the next DRQ block, [n] sectors long. *)
let start_block t n =
  let len = n * sector_bytes in
  if Bytes.length t.buf < len then t.buf <- Bytes.create len;
  t.buf_len <- len;
  t.buf_pos <- 0

(* Load up to [multiple] sectors into the PIO read buffer. *)
let load_read_buffer t ~remaining =
  let n = min t.multiple remaining in
  start_block t n;
  for s = 0 to n - 1 do
    let pos = s * sector_bytes in
    match Hashtbl.find t.store (t.next_lba + s) with
    | sec -> Bytes.blit sec 0 t.buf pos sector_bytes
    | exception Not_found -> Bytes.fill t.buf pos sector_bytes '\000'
  done;
  t.next_lba <- t.next_lba + n;
  n

(* A write's block starts zeroed: a data-port read in the middle of a
   write moves past bytes the driver has not written, and those reach
   the sector as zeroes. *)
let prepare_write_buffer t ~remaining =
  let n = min t.multiple remaining in
  start_block t n;
  Bytes.fill t.buf 0 t.buf_len '\000';
  n

let flush_write_buffer t ~lba =
  let n = t.buf_len / sector_bytes in
  for s = 0 to n - 1 do
    let pos = s * sector_bytes in
    match Hashtbl.find t.store (lba + s) with
    | sec -> Bytes.blit t.buf pos sec 0 sector_bytes
    | exception Not_found ->
        Hashtbl.replace t.store (lba + s) (Bytes.sub t.buf pos sector_bytes)
  done;
  n

let count_of t = if t.sector_count = 0 then 256 else t.sector_count

let start_command t cmd =
  t.error <- 0;
  match cmd with
  | 0x20 (* READ SECTORS *) ->
      let remaining = count_of t in
      t.next_lba <- current_lba t;
      let loaded = load_read_buffer t ~remaining in
      t.phase <- Pio_read { remaining = remaining - loaded };
      raise_irq t
  | 0x30 (* WRITE SECTORS *) ->
      let lba = current_lba t in
      let remaining = count_of t in
      let n = prepare_write_buffer t ~remaining in
      t.phase <- Pio_write { remaining = remaining - n; lba }
  | 0xc8 (* READ DMA *) ->
      t.phase <- Dma_read (current_lba t, count_of t)
  | 0xca (* WRITE DMA *) ->
      t.phase <- Dma_write (current_lba t, count_of t)
  | 0xec (* IDENTIFY *) ->
      start_block t 1;
      let b = t.buf in
      Bytes.fill b 0 sector_bytes '\000';
      let word w v = Bytes.set_uint16_le b (2 * w) v in
      word 0 0x0040;
      word 1 (t.sectors / (16 * 63));  (* pseudo CHS geometry *)
      word 3 16;
      word 6 63;
      word 60 (t.sectors land 0xffff);
      word 61 ((t.sectors lsr 16) land 0xffff);
      (* The model name from word 27, two characters a word, the first
         in the high byte. *)
      String.iteri
        (fun i c -> Bytes.set b (54 + (i lxor 1)) c)
        "DEVIL SIMULATED IDE DISK";
      t.phase <- Pio_read { remaining = 0 };
      raise_irq t
  | 0xe7 (* FLUSH CACHE *) ->
      t.phase <- Idle;
      raise_irq t
  | _ ->
      t.error <- 0x04;  (* ABRT *)
      t.phase <- Idle;
      raise_irq t

let drq t =
  match t.phase with
  | Pio_read _ | Pio_write _ -> t.buf_pos < t.buf_len
  | Idle | Dma_read _ | Dma_write _ -> false

let status_byte t =
  let bit b cond = if cond then 1 lsl b else 0 in
  bit 6 true (* DRDY *)
  lor bit 4 true (* DSC *)
  lor bit 3 (drq t)
  lor bit 0 (t.error <> 0)

(* The data port. Single transfers and blocks move the buffer's bytes
   and then call [took] or [put], so a DRQ block ends, refills and
   interrupts at the same element whichever way it is moved. *)

(* [k] bytes, at most what the block holds, have been read out. At the
   end of a read's DRQ block the drive loads the next one and
   interrupts, or ends the command. *)
let took t k =
  t.buf_pos <- t.buf_pos + k;
  if t.buf_pos >= t.buf_len then
    match t.phase with
    | Pio_read st ->
        if st.remaining > 0 then begin
          let n = load_read_buffer t ~remaining:st.remaining in
          st.remaining <- st.remaining - n;
          raise_irq t
        end
        else t.phase <- Idle
    | Idle | Pio_write _ | Dma_read _ | Dma_write _ -> ()

(* [k] bytes, at most what the block has room for, have been written
   in. A full DRQ block goes to the sectors; the drive interrupts and
   takes the next block or ends the command. *)
let put t k =
  t.buf_pos <- t.buf_pos + k;
  if t.buf_pos >= t.buf_len then
    match t.phase with
    | Pio_write st ->
        let n = flush_write_buffer t ~lba:st.lba in
        st.lba <- st.lba + n;
        raise_irq t;
        if st.remaining > 0 then begin
          let n = prepare_write_buffer t ~remaining:st.remaining in
          st.remaining <- st.remaining - n
        end
        else t.phase <- Idle
    | Idle | Pio_read _ | Dma_read _ | Dma_write _ -> ()

let pop_word t =
  if t.buf_pos >= t.buf_len then 0
  else begin
    let w = Bytes.get_uint16_le t.buf t.buf_pos in
    took t 2;
    w
  end

let push_word t v =
  match t.phase with
  | Pio_write _ when t.buf_pos < t.buf_len ->
      Bytes.set_uint16_le t.buf t.buf_pos v;
      put t 2
  | _ -> ()

(* A data transfer is a 16-bit word below width 32 and two words, low
   first, from 32. *)
let data_read t ~width =
  if width >= 32 then
    let lo = pop_word t in
    let hi = pop_word t in
    lo lor (hi lsl 16)
  else pop_word t

let data_write t ~width ~value =
  if width >= 32 then begin
    push_word t (value land 0xffff);
    push_word t ((value lsr 16) land 0xffff)
  end
  else push_word t (value land 0xffff)

(* Element [q] of a block's run in [b]: [size] 2 is one 16-bit word,
   4 two, low first. *)
let[@inline] get_elem b q size =
  if size = 2 then Bytes.get_uint16_le b q
  else Bytes.get_uint16_le b q lor (Bytes.get_uint16_le b (q + 2) lsl 16)

let[@inline] set_elem b q size v =
  Bytes.set_uint16_le b q v;
  if size = 4 then Bytes.set_uint16_le b (q + 2) (v lsr 16)

(* A block copies each run of elements the current DRQ block holds in
   one loop. An element the block cannot hold whole (one past the end,
   a dword across two blocks, a write the drive is not taking) goes
   through the single transfer. *)
let read_data t ~width ~into =
  let size = if width >= 32 then 4 else 2 in
  let i = ref 0 and n = Array.length into in
  while !i < n do
    let run = min (n - !i) ((t.buf_len - t.buf_pos) / size) in
    if run <= 0 then begin
      into.(!i) <- data_read t ~width;
      incr i
    end
    else begin
      for k = 0 to run - 1 do
        into.(!i + k) <- get_elem t.buf (t.buf_pos + (k * size)) size
      done;
      i := !i + run;
      took t (run * size)
    end
  done

let write_data t ~width ~from =
  let size = if width >= 32 then 4 else 2 in
  let i = ref 0 and n = Array.length from in
  while !i < n do
    let run =
      match t.phase with
      | Pio_write _ -> min (n - !i) ((t.buf_len - t.buf_pos) / size)
      | Idle | Pio_read _ | Dma_read _ | Dma_write _ -> 0
    in
    if run <= 0 then begin
      data_write t ~width ~value:from.(!i);
      incr i
    end
    else begin
      for k = 0 to run - 1 do
        set_elem t.buf (t.buf_pos + (k * size)) size from.(!i + k)
      done;
      i := !i + run;
      put t (run * size)
    end
  done

let dma_read_pending t =
  match t.phase with Dma_read (lba, n) -> Some (lba, n) | _ -> None

let dma_write_pending t =
  match t.phase with Dma_write (lba, n) -> Some (lba, n) | _ -> None

let dma_complete t =
  t.phase <- Idle;
  raise_irq t

let cmd_read t ~width ~offset =
  match offset with
  | 0 -> data_read t ~width
  | 1 -> t.error
  | 2 -> t.sector_count
  | 3 -> t.lba_low
  | 4 -> t.lba_mid
  | 5 -> t.lba_high
  | 6 -> t.drive_head
  | 7 ->
      (* Reading the status register acknowledges the interrupt. *)
      t.irq <- false;
      status_byte t
  | _ -> 0xff

let cmd_write t ~width ~offset ~value =
  match offset with
  | 0 -> data_write t ~width ~value
  | 1 -> t.features <- value land 0xff
  | 2 -> t.sector_count <- value land 0xff
  | 3 -> t.lba_low <- value land 0xff
  | 4 -> t.lba_mid <- value land 0xff
  | 5 -> t.lba_high <- value land 0xff
  | 6 -> t.drive_head <- value land 0xff
  | 7 -> start_command t (value land 0xff)
  | _ -> ()

let ctrl_read t ~width:_ ~offset =
  match offset with
  | 0 -> status_byte t (* alternate status: no IRQ acknowledge *)
  | _ -> 0xff

let ctrl_write t ~width:_ ~offset ~value =
  match offset with
  | 0 ->
      t.irq_enabled <- value land 0x02 = 0;
      if value land 0x04 <> 0 then begin
        (* soft reset *)
        t.phase <- Idle;
        t.error <- 0;
        t.irq <- false
      end
  | _ -> ()

(* Blocks at any other offset (the status register, say) are rare
   enough to take one element at a time. *)
let cmd_block t =
  {
    Model.read_block =
      (fun ~width ~offset ~into ->
        if offset = 0 then read_data t ~width ~into
        else
          for i = 0 to Array.length into - 1 do
            into.(i) <- cmd_read t ~width ~offset
          done);
    write_block =
      (fun ~width ~offset ~from ->
        if offset = 0 then write_data t ~width ~from
        else Array.iter (fun value -> cmd_write t ~width ~offset ~value) from);
  }

let command_model t =
  {
    Model.name = "ide-command";
    read = cmd_read t;
    write = cmd_write t;
    block = Some (cmd_block t);
  }

let control_model t =
  {
    Model.name = "ide-control";
    read = ctrl_read t;
    write = ctrl_write t;
    block = None;
  }
