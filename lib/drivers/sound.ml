module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

module Devil_driver = struct
  type t = Instance.t

  let create inst = inst

  let set_volume t ~left ~right =
    Instance.set t "left_attenuation" (Value.Int (left land 0x3f));
    Instance.set t "left_mute" (Value.Bool false);
    Instance.set t "right_attenuation" (Value.Int (right land 0x3f));
    Instance.set t "right_mute" (Value.Bool false)

  let mute t on =
    Instance.set t "left_mute" (Value.Bool on);
    Instance.set t "right_mute" (Value.Bool on)

  let chip_version t =
    match Instance.get t "chip_version" with
    | Value.Int v -> v
    | v ->
        Policy.fail
          (Policy.Device_fault
             ("chip_version: expected int, got " ^ Value.to_string v))

  let line_gain t gain =
    Instance.set t "line_left_gain" (Value.Int (gain land 0x3f));
    Instance.set t "line_left_mute" (Value.Bool false);
    Instance.set t "line_left_boost" (Value.Bool false)

  (* A transient fault aborts the burst before any sample reaches the
     FIFO, so the whole block write can be retried as a unit. *)
  let play t samples =
    Policy.with_retries ?ctx:(Instance.ctx t) ~label:"sound: play" (fun () ->
        Instance.write_block t "pcm_data" (Array.of_list samples))

  (* Recording consumes the capture FIFO, so a blind retry would skip
     samples; we only normalize failures into structured errors. *)
  let record t n =
    Policy.guarded ~label:"sound: record" (fun () ->
        Array.to_list (Instance.read_block t "pcm_data" ~count:n))
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; base : int }

  let create bus ~base = { bus; base }

  let outb t off v =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:(t.base + off) ~value:v

  let inb t off = t.bus.Devil_runtime.Bus.read ~width:8 ~addr:(t.base + off)

  let write_indexed t idx v =
    outb t 0 idx;
    outb t 1 v

  let read_indexed t idx =
    outb t 0 idx;
    inb t 1

  let set_volume t ~left ~right =
    write_indexed t 6 (left land 0x3f);
    write_indexed t 7 (right land 0x3f)

  let mute t on =
    let m = if on then 0x80 else 0x00 in
    write_indexed t 6 (read_indexed t 6 land 0x3f lor m);
    write_indexed t 7 (read_indexed t 7 land 0x3f lor m)

  (* The extended-register dance: write I23 with XRAE and the target
     index, access the data at offset 1, then restore normal mode by
     rewriting the control register. *)
  let xa_encode j =
    (* XA bit layout in I23: bit 2 is index bit 4; bits 7..4 are index
       bits 3..0; bit 3 is XRAE. *)
    let bit v n = (v lsr n) land 1 in
    (bit j 4 lsl 2)
    lor (bit j 3 lsl 7)
    lor (bit j 2 lsl 6)
    lor (bit j 1 lsl 5)
    lor (bit j 0 lsl 4)

  let read_extended t j =
    write_indexed t 23 (xa_encode j lor 0x08);
    let v = inb t 1 in
    outb t 0 0;  (* leave extended mode *)
    v

  let write_extended t j v =
    write_indexed t 23 (xa_encode j lor 0x08);
    outb t 1 v;
    outb t 0 0

  let chip_version t = read_extended t 25

  let line_gain t gain = write_extended t 2 (gain land 0x3f)

  let play t samples = List.iter (fun s -> outb t 3 s) samples

  let record t n = List.init n (fun _ -> inb t 3)
end
