type direction = To_memory | From_memory

type channel = {
  mutable base_addr : int;
  mutable base_count : int;
  mutable cur_addr : int;
  mutable cur_count : int;
  mutable mode : int;
  mutable masked : bool;
  mutable tc : bool;  (* terminal count reached *)
  mutable request : bool;
}

type t = {
  channels : channel array;
  memory : Bytes.t;
  mutable flip_flop : bool;  (* false = low byte next *)
  mutable command : int;
  mutable disabled : bool;
}

let fresh_channel () =
  {
    base_addr = 0;
    base_count = 0;
    cur_addr = 0;
    cur_count = 0;
    mode = 0;
    masked = true;
    tc = false;
    request = false;
  }

let create ~memory_size =
  {
    channels = Array.init 4 (fun _ -> fresh_channel ());
    memory = Bytes.make memory_size '\000';
    flip_flop = false;
    command = 0;
    disabled = false;
  }

let memory t = t.memory
let terminal_count t ~channel = t.channels.(channel).tc
let channel_masked t ~channel = t.channels.(channel).masked
let programmed_address t ~channel = t.channels.(channel).base_addr
let programmed_count t ~channel = t.channels.(channel).base_count

let master_clear t =
  Array.iter
    (fun c ->
      c.base_addr <- 0;
      c.base_count <- 0;
      c.cur_addr <- 0;
      c.cur_count <- 0;
      c.masked <- true;
      c.tc <- false;
      c.request <- false)
    t.channels;
  t.flip_flop <- false;
  t.command <- 0;
  t.disabled <- false

let latch_byte t current v ~set =
  let v = v land 0xff in
  let updated =
    if t.flip_flop then (current land 0x00ff) lor (v lsl 8)
    else (current land 0xff00) lor v
  in
  t.flip_flop <- not t.flip_flop;
  set updated

let read_latched t current =
  let v =
    if t.flip_flop then (current lsr 8) land 0xff else current land 0xff
  in
  t.flip_flop <- not t.flip_flop;
  v

let status_byte t =
  let tc = ref 0 and rq = ref 0 in
  Array.iteri
    (fun i c ->
      if c.tc then tc := !tc lor (1 lsl i);
      if c.request then rq := !rq lor (1 lsl i))
    t.channels;
  (* Reading the status register clears the TC bits. *)
  Array.iter (fun c -> c.tc <- false) t.channels;
  !tc lor (!rq lsl 4)

let read t ~width:_ ~offset =
  match offset with
  | 0 | 2 | 4 | 6 ->
      let c = t.channels.(offset / 2) in
      read_latched t c.cur_addr
  | 1 | 3 | 5 | 7 ->
      let c = t.channels.(offset / 2) in
      read_latched t c.cur_count
  | 8 -> status_byte t
  | _ -> 0xff

let write t ~width:_ ~offset ~value =
  match offset with
  | 0 | 2 | 4 | 6 ->
      let c = t.channels.(offset / 2) in
      latch_byte t c.base_addr value ~set:(fun v ->
          c.base_addr <- v;
          c.cur_addr <- v)
  | 1 | 3 | 5 | 7 ->
      let c = t.channels.(offset / 2) in
      latch_byte t c.base_count value ~set:(fun v ->
          c.base_count <- v;
          c.cur_count <- v)
  | 8 ->
      t.command <- value land 0xff;
      t.disabled <- value land 0x04 <> 0
  | 9 ->
      let c = t.channels.(value land 0x3) in
      c.request <- value land 0x4 <> 0
  | 10 ->
      let c = t.channels.(value land 0x3) in
      c.masked <- value land 0x4 <> 0
  | 11 ->
      let c = t.channels.(value land 0x3) in
      c.mode <- value land 0xff
  | 12 -> t.flip_flop <- false
  | 13 -> master_clear t
  | 14 -> Array.iter (fun c -> c.masked <- false) t.channels
  | 15 ->
      Array.iteri (fun i c -> c.masked <- value land (1 lsl i) <> 0) t.channels
  | _ -> ()

let device_request t ~channel ~data dir =
  let c = t.channels.(channel) in
  if c.masked || t.disabled then 0
  else begin
    let requested = c.cur_count + 1 in
    let n = min requested (Bytes.length data) in
    let mem = Bytes.length t.memory in
    let down = c.mode land 0x20 <> 0 in
    for i = 0 to n - 1 do
      let addr = if down then c.cur_addr - i else c.cur_addr + i in
      if addr >= 0 && addr < mem then
        match dir with
        | To_memory -> Bytes.set t.memory addr (Bytes.get data i)
        | From_memory -> Bytes.set data i (Bytes.get t.memory addr)
    done;
    c.cur_addr <- (if down then c.cur_addr - n else c.cur_addr + n) land 0xffff;
    c.cur_count <- c.cur_count - n;
    if c.cur_count < 0 then begin
      c.tc <- true;
      if c.mode land 0x10 <> 0 then begin
        (* auto-init *)
        c.cur_addr <- c.base_addr;
        c.cur_count <- c.base_count
      end
      else c.masked <- true
    end;
    n
  end

let model t =
  { Model.name = "dma8237"; read = read t; write = write t; block = None }
