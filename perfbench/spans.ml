(* The traced run's span recorder. Spans are kept in preallocated
   buffers outside the OCaml heap and reduced when the run ends; a
   disabled recorder records nothing and reads no clock. *)

module Bus = Devil_runtime.Bus

(* Span kinds. *)
let op = 0
let bus_read = 1
let bus_write = 2
let bus_read_block = 3
let bus_write_block = 4
let await = 5
let drain = 6
let telemetry = 7

let kind_names =
  [|
    "op";
    "bus:read";
    "bus:write";
    "bus:read_block";
    "bus:write_block";
    "sched:await";
    "sched:drain";
    "telemetry_tick";
  |]

let is_bus k = k >= bus_read && k <= bus_write_block

type t = {
  enabled : bool;
  cap : int;
  kind : Stats.ints;
  parent : Stats.ints;
  start : Stats.ints;
  stop : Stats.ints;
  addr : Stats.ints;  (* bus spans: the address; other spans: -1 *)
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable overflow : bool;
  mutable block_elems : int;
}

let make ~enabled cap =
  {
    enabled;
    cap;
    kind = Stats.ints cap;
    parent = Stats.ints cap;
    start = Stats.ints cap;
    stop = Stats.ints cap;
    addr = Stats.ints cap;
    n = 0;
    cur = -1;
    overflow = false;
    block_elems = 0;
  }

let disabled = make ~enabled:false 0
let create cap = make ~enabled:true cap

let open_at t k now =
  if not t.enabled then -1
  else if t.n >= t.cap then begin
    t.overflow <- true;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.kind.{i} <- k;
    t.parent.{i} <- t.cur;
    t.start.{i} <- now;
    t.stop.{i} <- now;
    t.addr.{i} <- -1;
    t.cur <- i;
    i
  end

let close_at t i now =
  if i >= 0 then begin
    t.stop.{i} <- now;
    t.cur <- t.parent.{i}
  end

let open_ t k = if t.enabled then open_at t k (Clock.ns ()) else -1
let close t i = if i >= 0 then close_at t i (Clock.ns ())

let around t k f =
  let i = open_ t k in
  match f () with
  | v ->
      close t i;
      v
  | exception e ->
      close t i;
      raise e

let bus_span t k addr =
  let i = open_ t k in
  if i >= 0 then t.addr.{i} <- addr;
  i

(* The wrapper [Machine.create ~wrap_bus] interposes: one leaf span per
   transfer, under whatever span is open. *)
let wrap t (b : Bus.t) : Bus.t =
  {
    Bus.read =
      (fun ~width ~addr ->
        let i = bus_span t bus_read addr in
        match b.Bus.read ~width ~addr with
        | v ->
            close t i;
            v
        | exception e ->
            close t i;
            raise e);
    write =
      (fun ~width ~addr ~value ->
        let i = bus_span t bus_write addr in
        match b.Bus.write ~width ~addr ~value with
        | () -> close t i
        | exception e ->
            close t i;
            raise e);
    read_block =
      (fun ~width ~addr ~into ->
        let i = bus_span t bus_read_block addr in
        t.block_elems <- t.block_elems + Array.length into;
        match b.Bus.read_block ~width ~addr ~into with
        | () -> close t i
        | exception e ->
            close t i;
            raise e);
    write_block =
      (fun ~width ~addr ~from ->
        let i = bus_span t bus_write_block addr in
        t.block_elems <- t.block_elems + Array.length from;
        match b.Bus.write_block ~width ~addr ~from with
        | () -> close t i
        | exception e ->
            close t i;
            raise e);
  }
