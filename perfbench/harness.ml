(* What every workload shares: the phase record it fills in, the stop
   rule, allocation accounting and the front-end half of set-up. *)

(* Compiles every bundled specification from source. [Devil_specs.Specs]
   memoizes its compiled devices, so [Machine.create] alone would pay
   the front end only once per process; set-up charges it every time. *)
let compile_specs () =
  List.iter
    (fun (name, source) ->
      let config =
        if name = "pic8259" then [ ("is_master", Devil_ir.Value.Bool true) ]
        else []
      in
      match Devil_check.Check.compile ~config ~file:(name ^ ".dil") source with
      | Ok _ -> ()
      | Error _ -> failwith ("specification " ^ name ^ " failed to compile"))
    Devil_specs.Specs.all

(* Words allocated so far by this domain. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A phase runs a workload's ops. A unit is where a phase may stop:
   one op for pio_disk and gfx_2d, one round of ticks for async_soak.
   [Until] stops at a deadline on the clock, [Units] after a number of
   units. *)
type stop = Until of int | Units of int

type phase = {
  lat : Stats.ints;  (* per-op wall latency, ns *)
  mutable units : int;
  mutable ops : int;
  mutable failed : int;
  mutable op_ns : int;  (* sum of op latencies *)
  mutable alloc_words : float;  (* allocated inside measured segments *)
  mutable alloc_mark : float;
  mutable heap_mark : int;  (* the op count at which ... *)
  mutable peak_words : int;  (* ... the Gc top heap size is read *)
  mutable sim_us : float;  (* modelled time of [sim_ops] ops *)
  mutable sim_ops : int;
  mutable counts : (string * int) list;  (* exact counts, compared across phases *)
  mutable layer : (string * float) list;  (* workload-specific layer figures *)
  mutable problems : string list;
  mutable more_problems : int;
  mutable breaks : int list;  (* clock marks, ascending, at which ... *)
  mutable on_break : unit -> unit;  (* ... this runs between two units *)
}

let phase ~capacity =
  {
    lat = Stats.ints capacity;
    units = 0;
    ops = 0;
    failed = 0;
    op_ns = 0;
    alloc_words = 0.0;
    alloc_mark = 0.0;
    heap_mark = max_int;
    peak_words = 0;
    sim_us = 0.0;
    sim_ops = 0;
    counts = [];
    layer = [];
    problems = [];
    more_problems = 0;
    breaks = [];
    on_break = ignore;
  }

(* Runs [f] outside the allocation count of the segment it falls in. *)
let uncounted ph f =
  let a0 = allocated_words () in
  f ();
  ph.alloc_mark <- ph.alloc_mark +. (allocated_words () -. a0)

(* Runs [on_break] once for each mark the clock has passed. *)
let rec take_breaks ph =
  match ph.breaks with
  | mark :: rest when Clock.ns () >= mark ->
      ph.breaks <- rest;
      uncounted ph ph.on_break;
      take_breaks ph
  | _ -> ()

(* Whether to start another unit, after taking any breaks that are due.
   A timed phase does at least one unit. *)
let continue ph stop =
  if ph.breaks <> [] then take_breaks ph;
  match stop with
  | Until deadline ->
      ph.ops < Bigarray.Array1.dim ph.lat && (ph.units = 0 || Clock.ns () < deadline)
  | Units n -> ph.units < n

let record ph dt =
  if ph.ops < Bigarray.Array1.dim ph.lat then ph.lat.{ph.ops} <- dt;
  ph.ops <- ph.ops + 1;
  ph.op_ns <- ph.op_ns + dt;
  if ph.ops = ph.heap_mark then ph.peak_words <- (Gc.quick_stat ()).top_heap_words

let problem ph fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length ph.problems < 8 then ph.problems <- msg :: ph.problems
      else ph.more_problems <- ph.more_problems + 1)
    fmt

let fail_op ph fmt =
  ph.failed <- ph.failed + 1;
  problem ph fmt

(* Allocation is counted over segments that hold only ops and the
   harness's allocation-free bookkeeping. The heap peak is read once
   [heap_mark] ops are done, so that a faster run, which does more ops,
   does not read a larger heap for it; a run that stops short of the
   mark reads it at the end of its last segment. Either is before any
   reference check builds machines of its own. *)
let alloc_begin ph = ph.alloc_mark <- allocated_words ()

let alloc_end ph =
  ph.alloc_words <- ph.alloc_words +. (allocated_words () -. ph.alloc_mark);
  if ph.ops < ph.heap_mark then
    ph.peak_words <- (Gc.quick_stat ()).top_heap_words

let add_count ph name v =
  let prev = Option.value ~default:0 (List.assoc_opt name ph.counts) in
  ph.counts <- (name, prev + v) :: List.remove_assoc name ph.counts

let add_layer ph name v =
  let prev = Option.value ~default:0.0 (List.assoc_opt name ph.layer) in
  ph.layer <- (name, prev +. v) :: List.remove_assoc name ph.layer

let layer ph name = Option.value ~default:0.0 (List.assoc_opt name ph.layer)

(* Exceptions a driver op may raise when it fails; anything else is a
   bug in the benchmark and ends the run. *)
let is_op_failure = function
  | Devil_runtime.Policy.Driver_error _ | Devil_runtime.Bus.Bus_fault _
  | Devil_runtime.Instance.Device_error _ | Failure _ ->
      true
  | _ -> false

(* One timed op: [f] under an op span, its wall latency recorded. A
   driver failure is logged and makes the result [false]. Callers build
   [f] once, outside their loop, so that timing an op allocates
   nothing. *)
let timed_op ph sp f =
  let t0 = Clock.ns () in
  let span = Spans.open_at sp Spans.op t0 in
  let ok =
    match f () with
    | () -> true
    | exception e when is_op_failure e ->
        problem ph "op %d raised %s" ph.ops (Printexc.to_string e);
        false
  in
  let t1 = Clock.ns () in
  Spans.close_at sp span t1;
  record ph (t1 - t0);
  ok

(* Nanoseconds per call of [f]: the median over [samples] timed batches
   of [iters] calls each. *)
let per_call ~samples ~iters f =
  Stats.median
    (Array.init samples (fun _ ->
         let t0 = Clock.ns () in
         for _ = 1 to iters do
           f ()
         done;
         float_of_int (Clock.ns () - t0) /. float_of_int iters))
