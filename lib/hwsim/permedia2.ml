let fifo_capacity = 32

(* Simulated time advances in 30 ns units: a posted MMIO write is one
   unit, an MMIO read (full PCI round trip) is ten. Engine bandwidth in
   framebuffer bytes per unit, and the extra cost of copies
   (read + modify + write) over fills. *)
let read_units = 10
let write_units = 1
let fill_bytes_per_unit = 17
let copy_cost_factor = 7  (* copies move 3.5x slower; factor over 2 *)

type cmd = { reg : int; value : int }

type t = {
  width : int;
  height : int;
  fb : int array;
  mutable depth : int;  (* bits per pixel *)
  mutable clip : int;
  mutable window_base : int;
  mutable raster_op : int;
  mutable fill_color : int;
  mutable rect_x : int;
  mutable rect_y : int;
  mutable rect_w : int;
  mutable rect_h : int;
  mutable copy_dx : int;
  mutable copy_dy : int;
  queue : cmd Queue.t;
  mutable busy : int;  (* ticks before the current render finishes *)
  mutable overflows : int;
  mutable ticks : int;
  mutable fb_cursor : int;
}

let create ?(width = 1024) ?(height = 768) () =
  {
    width;
    height;
    fb = Array.make (width * height) 0;
    depth = 8;
    clip = 0;
    window_base = 0;
    raster_op = 0;
    fill_color = 0;
    rect_x = 0;
    rect_y = 0;
    rect_w = 0;
    rect_h = 0;
    copy_dx = 0;
    copy_dy = 0;
    queue = Queue.create ();
    busy = 0;
    overflows = 0;
    ticks = 0;
    fb_cursor = 0;
  }

let overflows t = t.overflows
let ticks t = t.ticks
let busy_ticks_remaining t = t.busy
let depth t = t.depth

let pixel t ~x ~y =
  if x < 0 || y < 0 || x >= t.width || y >= t.height then 0
  else t.fb.((y * t.width) + x)

let set_pixel t ~x ~y v =
  if x >= 0 && y >= 0 && x < t.width && y < t.height then
    t.fb.((y * t.width) + x) <- v

let signed16 v = Devil_bits.Bitops.sign_extend ~width:16 v

let do_fill t =
  for y = t.rect_y to t.rect_y + t.rect_h - 1 do
    for x = t.rect_x to t.rect_x + t.rect_w - 1 do
      set_pixel t ~x ~y t.fill_color
    done
  done;
  (* Engine time: bandwidth-proportional plus a per-scanline setup
     cost (the rasterizer walks the rectangle line by line). *)
  (t.rect_w * t.rect_h * t.depth / 8 / fill_bytes_per_unit)
  + (t.rect_h * 5)

let do_copy t =
  (* Copy the source rectangle (destination displaced by dx/dy) with
     the scan order that tolerates overlap. *)
  let dx = t.copy_dx and dy = t.copy_dy in
  let xs = if dx > 0 then List.init t.rect_w (fun i -> t.rect_w - 1 - i)
           else List.init t.rect_w (fun i -> i)
  and ys = if dy > 0 then List.init t.rect_h (fun i -> t.rect_h - 1 - i)
           else List.init t.rect_h (fun i -> i) in
  List.iter
    (fun ry ->
      List.iter
        (fun rx ->
          let x = t.rect_x + rx and y = t.rect_y + ry in
          set_pixel t ~x ~y (pixel t ~x:(x - dx) ~y:(y - dy)))
        xs)
    ys;
  (t.rect_w * t.rect_h * t.depth / 8 * copy_cost_factor / 2
  / fill_bytes_per_unit)
  + (t.rect_h * 15)

let apply t (c : cmd) =
  match c.reg with
  | 1 ->
      t.fill_color <- c.value;
      0
  | 2 ->
      t.rect_x <- c.value land 0xffff;
      t.rect_y <- (c.value lsr 16) land 0xffff;
      t.fb_cursor <- (t.rect_y * t.width) + t.rect_x;
      0
  | 3 ->
      t.rect_w <- c.value land 0xffff;
      t.rect_h <- (c.value lsr 16) land 0xffff;
      0
  | 4 ->
      t.copy_dx <- signed16 (c.value land 0xffff);
      t.copy_dy <- signed16 ((c.value lsr 16) land 0xffff);
      0
  | 5 -> (
      match c.value land 0x3 with
      | 1 -> do_fill t
      | 2 -> do_copy t
      | _ -> 0)
  | 6 ->
      let d = c.value land 0x3f in
      if d = 8 || d = 16 || d = 24 || d = 32 then t.depth <- d;
      0
  | 8 ->
      t.clip <- c.value;
      0
  | 9 ->
      t.window_base <- c.value;
      0
  | 10 ->
      t.raster_op <- c.value land 0xf;
      0
  | _ -> 0

(* Advance simulated time: the engine works, then drains queued
   commands while it is idle. *)
let tick t units =
  t.ticks <- t.ticks + units;
  t.busy <- max 0 (t.busy - units);
  while t.busy = 0 && not (Queue.is_empty t.queue) do
    t.busy <- apply t (Queue.pop t.queue)
  done

let free_entries t = fifo_capacity - Queue.length t.queue

let mmio_read t ~width:_ ~offset =
  tick t read_units;
  match offset with
  | 0 -> free_entries t
  | 7 -> if t.busy > 0 || not (Queue.is_empty t.queue) then 1 else 0
  | _ -> 0

let mmio_write t ~width:_ ~offset ~value =
  tick t write_units;
  match offset with
  | 1 | 2 | 3 | 4 | 5 | 6 | 8 | 9 | 10 ->
      if free_entries t = 0 then t.overflows <- t.overflows + 1
      else begin
        Queue.push { reg = offset; value } t.queue;
        (* An idle engine consumes setup commands as they arrive. *)
        if t.busy = 0 then
          while t.busy = 0 && not (Queue.is_empty t.queue) do
            t.busy <- apply t (Queue.pop t.queue)
          done
      end
  | _ -> ()

let fb_read t ~width:_ ~offset:_ =
  tick t read_units;
  let v = if t.fb_cursor < Array.length t.fb then t.fb.(t.fb_cursor) else 0 in
  t.fb_cursor <- t.fb_cursor + 1;
  v

let fb_write t ~width:_ ~offset:_ ~value =
  tick t write_units;
  if t.fb_cursor < Array.length t.fb then t.fb.(t.fb_cursor) <- value;
  t.fb_cursor <- t.fb_cursor + 1

let mmio_model t =
  { Model.name = "permedia2-mmio"; read = mmio_read t; write = mmio_write t;
    block = None }

let fb_model t =
  { Model.name = "permedia2-fb"; read = fb_read t; write = fb_write t;
    block = None }
