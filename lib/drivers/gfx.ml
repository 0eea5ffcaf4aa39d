module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

type rect = { x : int; y : int; w : int; h : int }

(* The server re-sends the raster state (raster op, window base, clip)
   with every primitive, then programs the primitive's own parameters;
   each group is preceded by a FIFO wait loop — "2 or 3 wait loops are
   performed per primitive call" (paper §4.3). *)
let state_entries = 4  (* raster op, window base, clip, color *)
let param_entries = 2  (* position, size *)
let copy_param_entries = 3  (* position, size, offset *)

module Devil_driver = struct
  type t = {
    inst : Instance.t;
    ctx : Devil_runtime.Ctx.t option;  (* the instance's machine *)
    mutable depth : int;
  }

  let create inst = { inst; ctx = Instance.ctx inst; depth = 8 }

  (* Every public operation runs inside a guarded retry boundary: a
     transient bus fault anywhere in the sequence — a FIFO-space poll
     read included — is retried from the top (the sequences only
     buffer state until the final trigger write, and a transient
     aborts before the device is touched, so re-sending is safe), and
     whatever survives retrying surfaces as a classified
     [Policy.Driver_error], never a raw [Bus_fault]. *)
  let protected t label f =
    Policy.guarded ~label (fun () -> Policy.with_retries ?ctx:t.ctx ~label f)

  let free_entries t =
    match Instance.get t.inst "free_entries" with
    | Value.Int n -> n
    | _ -> 0

  let wait_fifo t n =
    Policy.poll_until ?ctx:t.ctx ~label:"gfx: FIFO space" (fun () ->
        free_entries t >= n)

  let set_depth t depth =
    protected t "gfx: set_depth" (fun () ->
        wait_fifo t 1;
        Instance.set t.inst "pixel_depth" (Value.Int depth));
    t.depth <- depth

  let sync t =
    protected t "gfx: sync" (fun () ->
        Policy.poll_until ?ctx:t.ctx ~label:"gfx: engine idle" (fun () ->
            match Instance.get t.inst "engine_busy" with
            | Value.Bool true -> false
            | _ -> true))

  let send_state t ~color =
    Instance.set t.inst "raster_op" (Value.Int 0x3);
    Instance.set t.inst "window_base" (Value.Int 0);
    Instance.set t.inst "clip_rect" (Value.Int 0x03ff03ff);
    Instance.set t.inst "fill_color" (Value.Int color)

  (* The FIFO entries [send_rect] writes: the two packed registers at
     24 bpp, one per field (four) on the independent-variable path. The
     model drops a write that finds the FIFO full, so each primitive
     reserves what its path writes. *)
  let rect_entries t = if t.depth = 24 then param_entries else 4

  let send_rect t { x; y; w; h } =
    if t.depth = 24 then begin
      (* Grouped structure stubs: one transfer per packed register. *)
      Instance.set_struct t.inst "rect_position"
        [ ("rect_x", Value.Int x); ("rect_y", Value.Int y) ];
      Instance.set_struct t.inst "rect_size"
        [ ("rect_width", Value.Int w); ("rect_height", Value.Int h) ]
    end
    else begin
      (* Independent variables: one interface call (and one I/O
         operation) each — the paper's §4.3 penalty. *)
      Instance.set t.inst "rect_x" (Value.Int x);
      Instance.set t.inst "rect_y" (Value.Int y);
      Instance.set t.inst "rect_width" (Value.Int w);
      Instance.set t.inst "rect_height" (Value.Int h)
    end

  let fill_rect t r ~color =
    protected t "gfx: fill_rect" (fun () ->
        wait_fifo t state_entries;
        send_state t ~color;
        wait_fifo t (rect_entries t);
        send_rect t r;
        wait_fifo t 1;
        Instance.set t.inst "render_op" (Value.Enum "OP_FILL"))

  let copy_rect t r ~dx ~dy =
    protected t "gfx: copy_rect" (fun () ->
        wait_fifo t state_entries;
        send_state t ~color:0;
        wait_fifo t (rect_entries t + 1);
        send_rect t r;
        Instance.set_struct t.inst "copy_vector"
          [ ("copy_dx", Value.Int dx); ("copy_dy", Value.Int dy) ];
        wait_fifo t 1;
        Instance.set t.inst "render_op" (Value.Enum "OP_COPY"))
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; mmio_base : int }

  let create bus ~mmio_base = { bus; mmio_base }

  let rd t off =
    t.bus.Devil_runtime.Bus.read ~width:32 ~addr:(t.mmio_base + off)

  let wr t off v =
    t.bus.Devil_runtime.Bus.write ~width:32 ~addr:(t.mmio_base + off) ~value:v

  let wait_fifo t n =
    Policy.poll_until ~label:"gfx: FIFO space" (fun () -> rd t 0 >= n)

  let set_depth t depth =
    wait_fifo t 1;
    wr t 6 depth

  let sync t =
    Policy.poll_until ~label:"gfx: engine idle" (fun () -> rd t 7 = 0)

  let send_state t ~color =
    wr t 10 0x3;
    wr t 9 0;
    wr t 8 0x03ff03ff;
    wr t 1 color

  let fill_rect t { x; y; w; h } ~color =
    wait_fifo t state_entries;
    send_state t ~color;
    wait_fifo t param_entries;
    wr t 2 (x lor (y lsl 16));
    wr t 3 (w lor (h lsl 16));
    wait_fifo t 1;
    wr t 5 0x1

  let copy_rect t { x; y; w; h } ~dx ~dy =
    let u16 v = v land 0xffff in
    wait_fifo t state_entries;
    send_state t ~color:0;
    wait_fifo t copy_param_entries;
    wr t 2 (x lor (y lsl 16));
    wr t 3 (w lor (h lsl 16));
    wr t 4 (u16 dx lor (u16 dy lsl 16));
    wait_fifo t 1;
    wr t 5 0x2
end
