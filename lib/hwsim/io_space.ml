module Bus = Devil_runtime.Bus

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable block_ops : int;
  mutable block_items : int;
}

type region = { base : int; size : int; model : Model.t }

(* [regions] is sorted by base, never overlaps and holds no empty
   region, so the only region that can hold an address is the last one
   whose base is at or below it. The bus closures read the field on every transfer, so a region
   attached after [bus] was taken is decoded too. *)
type t = { mutable regions : region array; stats : stats }

let create () =
  {
    regions = [||];
    stats = { reads = 0; writes = 0; block_ops = 0; block_items = 0 };
  }

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let attach t ~base ~size model =
  if size <= 0 then
    invalid_arg
      (Printf.sprintf "Io_space.attach: %s claims %d addresses"
         model.Model.name size);
  let region = { base; size; model } in
  Array.iter
    (fun existing ->
      if overlaps existing region then
        invalid_arg
          (Printf.sprintf "Io_space.attach: %s overlaps %s" model.Model.name
             existing.model.Model.name))
    t.regions;
  let regions = Array.append t.regions [| region |] in
  Array.sort (fun a b -> Int.compare a.base b.base) regions;
  t.regions <- regions

(* The index of the first region whose base is above [addr], searched
   for between [lo] and [hi]: every region below [lo] starts at or below
   [addr], every one from [hi] on above it. Top-level rather than local
   to [find], so that a decode allocates no closure. *)
let rec first_above rs addr lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if rs.(mid).base <= addr then first_above rs addr (mid + 1) hi
    else first_above rs addr lo mid

let find t addr =
  let rs = t.regions in
  let i = first_above rs addr 0 (Array.length rs) - 1 in
  if i >= 0 && addr < rs.(i).base + rs.(i).size then rs.(i)
  else
    raise
      (Devil_runtime.Instance.Device_error
         (Printf.sprintf "bus fault: no device at address %#x" addr))

let bus t : Bus.t =
  let stats = t.stats in
  {
    Bus.read =
      (fun ~width ~addr ->
        stats.reads <- stats.reads + 1;
        let r = find t addr in
        r.model.Model.read ~width ~offset:(addr - r.base));
    write =
      (fun ~width ~addr ~value ->
        stats.writes <- stats.writes + 1;
        let r = find t addr in
        r.model.Model.write ~width ~offset:(addr - r.base) ~value);
    read_block =
      (fun ~width ~addr ~into ->
        let n = Array.length into in
        stats.block_ops <- stats.block_ops + 1;
        stats.block_items <- stats.block_items + n;
        if n > 0 then begin
          let r = find t addr in
          let offset = addr - r.base in
          match r.model.Model.block with
          | Some b -> b.read_block ~width ~offset ~into
          | None ->
              let read = r.model.Model.read in
              for i = 0 to n - 1 do
                into.(i) <- read ~width ~offset
              done
        end);
    write_block =
      (fun ~width ~addr ~from ->
        let n = Array.length from in
        stats.block_ops <- stats.block_ops + 1;
        stats.block_items <- stats.block_items + n;
        if n > 0 then begin
          let r = find t addr in
          let offset = addr - r.base in
          match r.model.Model.block with
          | Some b -> b.write_block ~width ~offset ~from
          | None ->
              let write = r.model.Model.write in
              for i = 0 to n - 1 do
                write ~width ~offset ~value:from.(i)
              done
        end);
  }

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.block_ops <- 0;
  t.stats.block_items <- 0

let io_ops t = t.stats.reads + t.stats.writes + t.stats.block_items
let single_ops t = t.stats.reads + t.stats.writes

let pp_stats fmt t =
  Format.fprintf fmt
    "reads=%d writes=%d block_ops=%d block_items=%d (io_ops=%d)" t.stats.reads
    t.stats.writes t.stats.block_ops t.stats.block_items (io_ops t)
