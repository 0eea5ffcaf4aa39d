(* gfx_2d: the Tables 3/4 primitives. Seeded 2-10 px fills and copies
   (2:1) through the Devil Permedia2 driver, the colour depth stepping
   through 8/16/24/32 bpp every [depth_run] primitives so both the
   independent-variable path and the 24 bpp structure path run. Each
   primitive is a dozen or more single MMIO transfers, by-name
   [Instance.set] calls and [Policy.poll_until] FIFO loops, with no
   block transfers: the stub and policy layers dominate.

   An op ends with [sync], so the client starts the next primitive only
   once the engine has drawn the previous one. Without it the FIFO
   backs up and the driver's known reservation bug (it reserves 2 FIFO
   entries for a fill and 3 for a copy, then writes 4 packed-register
   updates on the independent-variable path) drops writes at 32 bpp.
   The traced run still counts those drops on the unsynchronised
   sequence ([unsynced_drops]). *)

module M = Drivers.Machine
module Gfx = Drivers.Gfx
module P2 = Hwsim.Permedia2

let depths = [| 8; 16; 24; 32 |]
let depth_run = 16
let fb_width = 1024
let fb_height = 768
let probe_ops = 20_000 (* primitives in the unsynchronised probe *)

type draw = {
  mutable depth : int;
  mutable copy : bool;
  mutable x : int;
  mutable y : int;
  mutable w : int;
  mutable h : int;
  mutable color : int;
  mutable dx : int;
  mutable dy : int;
}

let new_draw () =
  { depth = 8; copy = false; x = 0; y = 0; w = 0; h = 0; color = 0; dx = 0; dy = 0 }

let rng_of seed = Random.State.make [| seed; 0x2d |]

(* The [k]-th primitive of the seeded sequence. *)
let next rng k d =
  d.depth <- depths.(k / depth_run mod Array.length depths);
  d.copy <- k mod 3 = 2;
  d.w <- 2 + Random.State.int rng 9;
  d.h <- 2 + Random.State.int rng 9;
  d.x <- Random.State.int rng (fb_width - d.w);
  d.y <- Random.State.int rng (fb_height - d.h);
  d.color <- Random.State.int rng 0x1000000;
  d.dx <- Random.State.int rng 33 - 16;
  d.dy <- Random.State.int rng 33 - 16

let devil_op g k d =
  if k mod depth_run = 0 then Gfx.Devil_driver.set_depth g d.depth;
  let r = { Gfx.x = d.x; y = d.y; w = d.w; h = d.h } in
  if d.copy then Gfx.Devil_driver.copy_rect g r ~dx:d.dx ~dy:d.dy
  else Gfx.Devil_driver.fill_rect g r ~color:d.color

let hand_op g k d =
  if k mod depth_run = 0 then Gfx.Handcrafted.set_depth g d.depth;
  let r = { Gfx.x = d.x; y = d.y; w = d.w; h = d.h } in
  if d.copy then Gfx.Handcrafted.copy_rect g r ~dx:d.dx ~dy:d.dy
  else Gfx.Handcrafted.fill_rect g r ~color:d.color

let construct ?wrap_bus () =
  Harness.compile_specs ();
  let m = M.create ?wrap_bus () in
  let g = Gfx.Devil_driver.create m.gfx_dev in
  Gfx.Devil_driver.set_depth g depths.(0);
  (m, g)

let setup () = ignore (construct ())

let hand_machine () =
  let m = M.create () in
  (m, Gfx.Handcrafted.create m.bus ~mmio_base:M.gfx_mmio_base)

(* The reference: the same [ops] primitives replayed through the
   hand-written driver must leave the same framebuffer. *)
let check_framebuffer ~seed ~ops (m : M.t) (ph : Harness.phase) =
  let ref_m, h = hand_machine () in
  let rng = rng_of seed and d = new_draw () in
  for k = 0 to ops - 1 do
    next rng k d;
    hand_op h k d
  done;
  Gfx.Handcrafted.sync h;
  if P2.overflows ref_m.gfx > 0 then
    Harness.problem ph "reference driver dropped %d FIFO writes"
      (P2.overflows ref_m.gfx);
  let diff = ref 0 in
  for y = 0 to fb_height - 1 do
    for x = 0 to fb_width - 1 do
      if P2.pixel m.gfx ~x ~y <> P2.pixel ref_m.gfx ~x ~y then incr diff
    done
  done;
  if !diff > 0 then
    Harness.problem ph "framebuffer differs from the reference in %d pixels"
      !diff

let run ~seed ~stop (sp : Spans.t) (ph : Harness.phase) =
  let wrap_bus = if sp.enabled then Some (Spans.wrap sp) else None in
  let m, g = construct ?wrap_bus () in
  let rng = rng_of seed and d = new_draw () in
  let k = ref 0 in
  let op () =
    devil_op g !k d;
    Gfx.Devil_driver.sync g
  in
  M.reset_io_stats m;
  Harness.alloc_begin ph;
  while Harness.continue ph stop do
    k := ph.ops;
    next rng !k d;
    let dropped = P2.overflows m.gfx in
    let ok = Harness.timed_op ph sp op in
    ph.units <- ph.units + 1;
    if not ok then Harness.fail_op ph "primitive %d failed" !k
    else if P2.overflows m.gfx > dropped then
      Harness.fail_op ph "primitive %d dropped %d FIFO writes" !k
        (P2.overflows m.gfx - dropped)
  done;
  Harness.alloc_end ph;
  let st = M.stats m in
  (* PCI timing as in Perfmodel.Permedia_bench: reads stall for the
     round trip, writes are posted. *)
  ph.sim_us <-
    ((float_of_int st.reads *. Perfmodel.Cost.t_gfx_read)
    +. (float_of_int st.writes *. Perfmodel.Cost.t_gfx_write))
    *. 1e6;
  ph.sim_ops <- ph.ops;
  List.iter
    (fun (k, v) -> Harness.add_count ph k v)
    [
      ("io.reads", st.reads);
      ("io.writes", st.writes);
      ("io.block_ops", st.block_ops);
      ("io.block_items", st.block_items);
      ("gfx.overflows", P2.overflows m.gfx);
    ];
  check_framebuffer ~seed ~ops:ph.ops m ph

(* The seed's first [probe_ops] primitives without [sync]: primitives
   that lost FIFO writes and writes lost, for the Devil driver and for
   the hand-written one. *)
let unsynced_drops ~seed =
  let m = M.create () in
  let g = Gfx.Devil_driver.create m.gfx_dev in
  let ref_m, h = hand_machine () in
  let rng = rng_of seed and d = new_draw () in
  let drop_ops = ref 0 in
  for k = 0 to probe_ops - 1 do
    next rng k d;
    let before = P2.overflows m.gfx in
    devil_op g k d;
    hand_op h k d;
    if P2.overflows m.gfx > before then incr drop_ops
  done;
  (!drop_ops, P2.overflows m.gfx, P2.overflows ref_m.gfx)
