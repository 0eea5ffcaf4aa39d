exception Bus_fault of string

type t = {
  read : width:int -> addr:int -> int;
  write : width:int -> addr:int -> value:int -> unit;
  read_block : width:int -> addr:int -> into:int array -> unit;
  write_block : width:int -> addr:int -> from:int array -> unit;
}

let memory ?(size = 65536) () =
  let cells = Array.make size 0 in
  let clip ~width v = v land Devil_bits.Bitops.width_mask width in
  let check addr =
    if addr < 0 || addr >= size then
      raise
        (Bus_fault
           (Printf.sprintf "memory bus: address %#x outside [0, %#x)" addr size))
  in
  let read ~width ~addr =
    check addr;
    clip ~width cells.(addr)
  in
  let write ~width ~addr ~value =
    check addr;
    cells.(addr) <- clip ~width value
  in
  let read_block ~width ~addr ~into =
    Array.iteri (fun i _ -> into.(i) <- read ~width ~addr) into
  in
  let write_block ~width ~addr ~from =
    Array.iter (fun value -> write ~width ~addr ~value) from
  in
  { read; write; read_block; write_block }

(* {1 Deterministic record/replay} *)

type transfer =
  | T_read of { width : int; addr : int; value : int }
  | T_write of { width : int; addr : int; value : int }
  | T_read_block of { width : int; addr : int; values : int array }
  | T_write_block of { width : int; addr : int; values : int array }
  | T_fault of { op : string; width : int; addr : int; message : string }

type tape = { mutable rev : transfer list; mutable count : int }

exception Replay_divergence of string

let tape_length t = t.count
let tape_transfers t = List.rev t.rev

let tape_of_transfers transfers =
  { rev = List.rev transfers; count = List.length transfers }

let pp_transfer fmt = function
  | T_read { width; addr; value } ->
      Format.fprintf fmt "R%d [%#x] -> %#x" width addr value
  | T_write { width; addr; value } ->
      Format.fprintf fmt "W%d [%#x] <- %#x" width addr value
  | T_read_block { width; addr; values } ->
      Format.fprintf fmt "R%d block [%#x] x%d" width addr (Array.length values)
  | T_write_block { width; addr; values } ->
      Format.fprintf fmt "W%d block [%#x] x%d" width addr (Array.length values)
  | T_fault { op; width; addr; message } ->
      Format.fprintf fmt "fault on %s%d [%#x]: %s" op width addr message

let transfer_to_string tr = Format.asprintf "%a" pp_transfer tr

let recording bus =
  let tape = { rev = []; count = 0 } in
  let push tr =
    tape.rev <- tr :: tape.rev;
    tape.count <- tape.count + 1
  in
  (* A faulted transfer is part of the interaction the driver saw — the
     recovery path it provokes must replay too — so the raised
     [Bus_fault] is taped before it propagates. *)
  let faulting op ~width ~addr f =
    try f ()
    with Bus_fault message ->
      push (T_fault { op; width; addr; message });
      raise (Bus_fault message)
  in
  let wrapped =
    {
      read =
        (fun ~width ~addr ->
          faulting "read" ~width ~addr (fun () ->
              let value = bus.read ~width ~addr in
              push (T_read { width; addr; value });
              value));
      write =
        (fun ~width ~addr ~value ->
          faulting "write" ~width ~addr (fun () ->
              bus.write ~width ~addr ~value;
              push (T_write { width; addr; value })));
      read_block =
        (fun ~width ~addr ~into ->
          faulting "read_block" ~width ~addr (fun () ->
              bus.read_block ~width ~addr ~into;
              push (T_read_block { width; addr; values = Array.copy into })));
      write_block =
        (fun ~width ~addr ~from ->
          faulting "write_block" ~width ~addr (fun () ->
              bus.write_block ~width ~addr ~from;
              push (T_write_block { width; addr; values = Array.copy from })));
    }
  in
  (tape, wrapped)

let replaying tape =
  let items = Array.of_list (List.rev tape.rev) in
  let pos = ref 0 in
  let diverge fmt =
    Format.kasprintf (fun s -> raise (Replay_divergence s)) fmt
  in
  let next ~requested =
    if !pos >= Array.length items then
      diverge "tape exhausted after %d transfers; live run issued %s"
        (Array.length items) requested;
    let i = !pos in
    incr pos;
    (i, items.(i))
  in
  let mismatch i taped requested =
    diverge "transfer %d diverged: tape has %s, live run issued %s" i
      (transfer_to_string taped) requested
  in
  {
    read =
      (fun ~width ~addr ->
        let requested = Printf.sprintf "R%d [%#x]" width addr in
        match next ~requested with
        | _, T_read { width = w; addr = a; value } when w = width && a = addr
          ->
            value
        | _, T_fault { op = "read"; width = w; addr = a; message }
          when w = width && a = addr ->
            raise (Bus_fault message)
        | i, taped -> mismatch i taped requested);
    write =
      (fun ~width ~addr ~value ->
        let requested = Printf.sprintf "W%d [%#x] <- %#x" width addr value in
        match next ~requested with
        | _, T_write { width = w; addr = a; value = v }
          when w = width && a = addr && v = value ->
            ()
        | _, T_fault { op = "write"; width = w; addr = a; message }
          when w = width && a = addr ->
            raise (Bus_fault message)
        | i, taped -> mismatch i taped requested);
    read_block =
      (fun ~width ~addr ~into ->
        let requested =
          Printf.sprintf "R%d block [%#x] x%d" width addr (Array.length into)
        in
        match next ~requested with
        | _, T_read_block { width = w; addr = a; values }
          when w = width && a = addr && Array.length values = Array.length into
          ->
            Array.blit values 0 into 0 (Array.length values)
        | _, T_fault { op = "read_block"; width = w; addr = a; message }
          when w = width && a = addr ->
            raise (Bus_fault message)
        | i, taped -> mismatch i taped requested);
    write_block =
      (fun ~width ~addr ~from ->
        let requested =
          Printf.sprintf "W%d block [%#x] x%d" width addr (Array.length from)
        in
        match next ~requested with
        | _, T_write_block { width = w; addr = a; values }
          when w = width && a = addr && values = from ->
            ()
        | _, T_fault { op = "write_block"; width = w; addr = a; message }
          when w = width && a = addr ->
            raise (Bus_fault message)
        | i, taped -> mismatch i taped requested);
  }

let bytes_of ~width n = n * ((width + 7) / 8)

(* The bus counters, resolved once per wrapper. *)
type bus_counters = {
  reads : Metrics.Counter.t;
  writes : Metrics.Counter.t;
  block_reads : Metrics.Counter.t;
  block_writes : Metrics.Counter.t;
  read_items : Metrics.Counter.t;
  write_items : Metrics.Counter.t;
  bytes_read : Metrics.Counter.t;
  bytes_written : Metrics.Counter.t;
  block_len : Metrics.Histogram.t;
}

let bus_counters m =
  let c = Metrics.Counter.make m in
  {
    reads = c "bus.reads";
    writes = c "bus.writes";
    block_reads = c "bus.block_reads";
    block_writes = c "bus.block_writes";
    read_items = c "bus.read_items";
    write_items = c "bus.write_items";
    bytes_read = c "bus.bytes_read";
    bytes_written = c "bus.bytes_written";
    block_len = Metrics.Histogram.make m "bus.block_len";
  }

let observed ?ctx bus =
  match ctx with
  | None | Some { Ctx.trace = None; metrics = None; profile = None; _ } -> bus
  | Some { Ctx.trace; metrics; profile; _ } ->
      let metrics = Option.map bus_counters metrics in
      (* The bus transfer is the leaf of the span hierarchy: the
         wrapper times the underlying call precisely and records it as
         a child of whatever span is open. Faults propagate before
         anything is recorded — the trace and the profile hold only
         transfers that completed. Without a profiler the transfer is
         called directly, with no closure built around it. *)
      let timed p key f =
        let s = Profile.enter p key in
        match f () with
        | v ->
            Profile.exit p s;
            v
        | exception e ->
            Profile.exit p s;
            raise e
      in
      {
        read =
          (fun ~width ~addr ->
            let value =
              match profile with
              | None -> bus.read ~width ~addr
              | Some p -> timed p "bus:read" (fun () -> bus.read ~width ~addr)
            in
            (match metrics with
            | Some m ->
                Metrics.Counter.incr m.reads;
                Metrics.Counter.add m.bytes_read (bytes_of ~width 1)
            | None -> ());
            (match trace with
            | Some tr -> Trace.emit tr (Trace.Bus_read { addr; width; value })
            | None -> ());
            value);
        write =
          (fun ~width ~addr ~value ->
            (match profile with
            | None -> bus.write ~width ~addr ~value
            | Some p ->
                timed p "bus:write" (fun () -> bus.write ~width ~addr ~value));
            (match metrics with
            | Some m ->
                Metrics.Counter.incr m.writes;
                Metrics.Counter.add m.bytes_written (bytes_of ~width 1)
            | None -> ());
            match trace with
            | Some tr -> Trace.emit tr (Trace.Bus_write { addr; width; value })
            | None -> ());
        read_block =
          (fun ~width ~addr ~into ->
            (match profile with
            | None -> bus.read_block ~width ~addr ~into
            | Some p ->
                timed p "bus:block_read" (fun () ->
                    bus.read_block ~width ~addr ~into));
            let count = Array.length into in
            (match metrics with
            | Some m ->
                Metrics.Counter.incr m.block_reads;
                Metrics.Counter.add m.read_items count;
                Metrics.Counter.add m.bytes_read (bytes_of ~width count);
                Metrics.Histogram.observe m.block_len count
            | None -> ());
            match trace with
            | Some tr ->
                Trace.emit tr (Trace.Bus_block_read { addr; width; count })
            | None -> ());
        write_block =
          (fun ~width ~addr ~from ->
            (match profile with
            | None -> bus.write_block ~width ~addr ~from
            | Some p ->
                timed p "bus:block_write" (fun () ->
                    bus.write_block ~width ~addr ~from));
            let count = Array.length from in
            (match metrics with
            | Some m ->
                Metrics.Counter.incr m.block_writes;
                Metrics.Counter.add m.write_items count;
                Metrics.Counter.add m.bytes_written (bytes_of ~width count);
                Metrics.Histogram.observe m.block_len count
            | None -> ());
            match trace with
            | Some tr ->
                Trace.emit tr (Trace.Bus_block_write { addr; width; count })
            | None -> ());
      }
