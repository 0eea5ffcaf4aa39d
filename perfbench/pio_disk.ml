(* pio_disk: the Table 2 data path. Seeded 8-sector PIO reads (3 ops in
   4) and writes (1 in 4) through the Devil IDE driver's block stubs at
   16-bit width, 8 sectors per interrupt. One op moves 2,048 block
   elements in a handful of single transfers, so Io_space decode and
   the disk model do nearly all the work. *)

module M = Drivers.Machine
module Ide = Drivers.Ide
module Disk = Hwsim.Ide_disk

let base_lba = 4096
let region = 1024 (* sectors the ops address, pre-filled in set-up *)
let count = 8 (* sectors per op *)
let mult = 8 (* sectors per interrupt *)
let bytes_per_op = count * Disk.sector_bytes

let construct ?wrap_bus () =
  Harness.compile_specs ();
  let m = M.create ?wrap_bus () in
  Disk.set_multiple m.disk mult;
  (m, Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev)

let setup () = ignore (construct ())

(* Byte [j] of sector [lba] after its [version]-th write. *)
let byte ~salt ~lba ~version j =
  ((lba * 131) + (version * 71) + (j * 7) + ((j lsr 8) * 13) + salt) land 0xff

(* Whether [data] holds the sectors at [lba] as last written. *)
let read_ok ~salt ~versions ~off ~lba data =
  Bytes.length data = bytes_per_op
  &&
  let same = ref true in
  for s = 0 to count - 1 do
    let version = versions.(off + s) in
    for j = 0 to Disk.sector_bytes - 1 do
      if
        Char.code (Bytes.unsafe_get data ((s * Disk.sector_bytes) + j))
        <> byte ~salt ~lba:(lba + s) ~version j
      then same := false
    done
  done;
  !same

let run ~seed ~stop (sp : Spans.t) (ph : Harness.phase) =
  let wrap_bus = if sp.enabled then Some (Spans.wrap sp) else None in
  let m, d = construct ?wrap_bus () in
  let rng = Random.State.make [| seed; 0x1de |] in
  let salt = Random.State.int rng 256 in
  let versions = Array.make region 0 in
  for s = 0 to region - 1 do
    let lba = base_lba + s in
    Disk.write_sector m.disk ~lba
      (Bytes.init Disk.sector_bytes (fun j ->
           Char.chr (byte ~salt ~lba ~version:0 j)))
  done;
  let buf = Bytes.create bytes_per_op in
  let data = ref Bytes.empty in
  let lba = ref 0 and write = ref false in
  let op () =
    if !write then
      Ide.Devil_driver.write_sectors d ~lba:!lba ~count ~mult ~path:`Block
        ~width:`W16 buf
    else
      data :=
        Ide.Devil_driver.read_sectors d ~lba:!lba ~count ~mult ~path:`Block
          ~width:`W16
  in
  M.reset_io_stats m;
  Disk.reset_irq_count m.disk;
  Harness.alloc_begin ph;
  while Harness.continue ph stop do
    let off = Random.State.int rng (region - count + 1) in
    lba := base_lba + off;
    write := ph.ops land 3 = 3;
    if !write then
      for s = 0 to count - 1 do
        let version = versions.(off + s) + 1 in
        versions.(off + s) <- version;
        for j = 0 to Disk.sector_bytes - 1 do
          Bytes.unsafe_set buf
            ((s * Disk.sector_bytes) + j)
            (Char.unsafe_chr (byte ~salt ~lba:(!lba + s) ~version j))
        done
      done;
    let ok = Harness.timed_op ph sp op in
    ph.units <- ph.units + 1;
    if not (ok && (!write || read_ok ~salt ~versions ~off ~lba:!lba !data))
    then Harness.fail_op ph "op %d at lba %d: wrong data" ph.ops !lba
  done;
  Harness.alloc_end ph;
  let st = M.stats m in
  let irqs = Disk.irq_count m.disk in
  ph.sim_us <-
    Perfmodel.Cost.pio_time
      {
        singles = st.reads + st.writes;
        block_items = st.block_items;
        irqs;
      }
    *. 1e6;
  ph.sim_ops <- ph.ops;
  List.iter
    (fun (k, v) -> Harness.add_count ph k v)
    [
      ("io.reads", st.reads);
      ("io.writes", st.writes);
      ("io.block_ops", st.block_ops);
      ("io.block_items", st.block_items);
      ("ide.irqs", irqs);
    ]
