(* perfbench: the driver stack measured end to end and by layer.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   NAME is pio_disk, gfx_2d or async_soak, or [all] to run the three
   one after another, each in a fresh process. Every
   workload is a closed loop with one client: the next op starts only
   after the previous one returned. With --trace 0 the run reports the
   end-to-end metrics; with --trace 1 it reports the per-layer metrics
   of a traced replay of the same ops. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics.
   [main.exe --setup-child NAME] is the child a timed run starts to
   time set-up in (see below). README.md records why each workload is
   there and which end-to-end metric each layer metric should move. *)

module M = Drivers.Machine

type workload = {
  name : string;
  setup : unit -> unit;  (* one construction, as timed for setup_s *)
  run : seed:int -> stop:Harness.stop -> Spans.t -> Harness.phase -> unit;
  traced_ops : int;  (* op cap of a traced run, so its spans fit *)
  align : int;  (* ops in one repeat of the mix; windows are multiples *)
  heap_mark : int;  (* ops after which peak_heap_mb is read *)
}

let workloads =
  [
    {
      name = "pio_disk";
      setup = Pio_disk.setup;
      run = Pio_disk.run;
      traced_ops = 50_000;
      align = 4;
      heap_mark = 40_000;
    };
    {
      name = "gfx_2d";
      setup = Gfx_2d.setup;
      run = Gfx_2d.run;
      traced_ops = 80_000;
      align = Gfx_2d.depth_run * Array.length Gfx_2d.depths;
      heap_mark = 1_000_000;
    };
    {
      name = "async_soak";
      setup = Async_soak.setup;
      run = Async_soak.run;
      traced_ops = 30 * Async_soak.ticks_per_round;
      align = Async_soak.ticks_per_round;
      heap_mark = 100 * Async_soak.ticks_per_round;
    };
  ]

(* Each of these changes what Machine.create builds or the poll and
   retry budgets the drivers run under. *)
let refused_env =
  [
    "DEVIL_TRACE";
    "DEVIL_METRICS";
    "DEVIL_PROFILE";
    "DEVIL_TELEMETRY";
    "DEVIL_POLL_DEADLINE";
    "DEVIL_RETRY_ATTEMPTS";
  ]

let windows = 20
let lat_capacity = 8_000_000
let span_capacity = 2_000_000

let usage () =
  prerr_endline
    "usage: main.exe --workload pio_disk|gfx_2d|async_soak|all \
     --seed N --seconds S --trace 0|1";
  exit 2

(* {1 Reporting} *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_note : string;
}

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_unit; m_value; m_note = note }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6f %-6s %s\n" m.m_name m.m_value m.m_unit
        m.m_note)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let report_problems (ph : Harness.phase) =
  List.iter (Printf.printf "  problem: %s\n") (List.rev ph.problems);
  if ph.more_problems > 0 then
    Printf.printf "  problem: ... and %d more\n" ph.more_problems

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sorted_latencies (ph : Harness.phase) =
  let n = min ph.ops (Bigarray.Array1.dim ph.lat) in
  let a = Array.init n (fun i -> ph.lat.{i}) in
  Array.sort compare a;
  a

(* {1 Set-up (setup_s)}

   Set-up is timed in fresh child processes, [setup_children] of them
   spread evenly over the timed run, so that every repetition starts
   from the same heap whichever workload ran, and the figure spans the
   host's drift over the run instead of one instant. A child runs
   [setup_warmup] untimed set-ups, then times [setup_reps] more, with no
   forced collection in between: a full major GC would hide the debt
   construction leaves behind. *)

let setup_children = 6
let setup_warmup = 20
let setup_reps = 10

(* Left to its defaults, glibc's allocator hands each 6 MiB Permedia2
   framebuffer back to the kernel when it is freed and faults its 1,536
   pages in again for the next machine: about 2 ms of a set-up of about
   8 ms, and a tenth of the exploration floor's time, at a price set by
   the host's memory rather than by the stack. So the process starts
   itself again, before it does anything else, with the allocator told
   to keep what it frees; the set-up children inherit the settings. *)
let malloc_env =
  [|
    ("MALLOC_MMAP_THRESHOLD_", "268435456");
    ("MALLOC_TRIM_THRESHOLD_", "4294967296");
  |]

let keep_freed_memory () =
  if Array.exists (fun (k, v) -> Sys.getenv_opt k <> Some v) malloc_env then
    let ours (k, _) kv = String.starts_with ~prefix:(k ^ "=") kv in
    let others =
      List.filter
        (fun kv -> not (Array.exists (fun kv' -> ours kv' kv) malloc_env))
        (Array.to_list (Unix.environment ()))
    in
    Unix.execve Sys.executable_name Sys.argv
      (Array.append (Array.of_list others)
         (Array.map (fun (k, v) -> k ^ "=" ^ v) malloc_env))

(* The child's side: one set-up time in nanoseconds a line. *)
let setup_child w =
  for _ = 1 to setup_warmup do
    w.setup ()
  done;
  let times =
    Array.init setup_reps (fun _ ->
        let t0 = Clock.ns () in
        w.setup ();
        Clock.ns () - t0)
  in
  Array.iter (Printf.printf "%d\n") times

(* Runs one child and appends its times, in seconds, to [into]. *)
let sample_setup w (into : float list ref) =
  let r, out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--setup-child"; w.name |]
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  let ic = Unix.in_channel_of_descr r in
  let rec read () =
    match input_line ic with
    | line ->
        into := (float_of_string line /. 1e9) :: !into;
        read ()
    | exception End_of_file -> ()
  in
  read ();
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "set-up child failed"

(* {1 End to end (--trace 0)} *)

let end_to_end w ~seed ~seconds =
  let budget = seconds * 1_000_000_000 in
  let ph = Harness.phase ~capacity:lat_capacity in
  ph.heap_mark <- w.heap_mark;
  let setups = ref [] in
  let t0 = Clock.ns () in
  ph.breaks <-
    List.init setup_children (fun k -> t0 + (k * budget / setup_children));
  ph.on_break <- (fun () -> sample_setup w setups);
  w.run ~seed ~stop:(Harness.Until (t0 + budget)) Spans.disabled ph;
  List.iter (fun _ -> sample_setup w setups) ph.breaks;
  let setups = Array.of_list !setups in
  let n = min ph.ops (Bigarray.Array1.dim ph.lat) in
  let ops = float_of_int ph.ops in
  (* Throughput and percentiles are medians over windows of like work,
     so that a burst of interference on the shared host moves them only
     when it covers most of the run. *)
  let timing, over =
    match Stats.windowed ph.lat n ~windows ~align:w.align with
    | Some (s, count, len) ->
        (s, Printf.sprintf "median over %d windows of %d ops" count len)
    | None ->
        Harness.problem ph "too few samples (%d) for a p99 with %d beyond" n
          Stats.tail_min;
        ({ Stats.per_s = 0.0; p50 = 0.0; p99 = 0.0 }, "")
  in
  let metrics =
    [
      metric "ops_per_s" "1/s" timing.per_s
        ~note:(Printf.sprintf "(%s; %d ops in all)" over ph.ops);
      metric "op_p50_us" "us" (timing.p50 /. 1e3) ~note:(Printf.sprintf "(n=%d)" n);
      metric "op_p99_us" "us" (timing.p99 /. 1e3)
        ~note:(Printf.sprintf "(%d or more beyond)" Stats.tail_min);
      metric "setup_s" "s" (Stats.median setups)
        ~note:
          (Printf.sprintf "(median of %d warm set-ups in %d processes)"
             (Array.length setups) setup_children);
      metric "peak_heap_mb" "MiB"
        (float_of_int (ph.peak_words * (Sys.word_size / 8)) /. 1048576.0)
        ~note:(Printf.sprintf "(after %d ops)" (min ph.ops w.heap_mark));
      metric "alloc_words_per_op" "words" (ratio ph.alloc_words ops);
    ]
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=0\n" w.name seed seconds;
  (* Reported, not in the JSON line: the modelled time is exact, so on
     pio_disk, where every op moves the same I/O, it reads the same on
     every run, and the fail ratio is 0 whenever the run is correct. *)
  Printf.printf "  %-34s %16.6f %-6s (modelled, over %d ops)\n" "sim_us_per_op"
    (ratio ph.sim_us (float_of_int ph.sim_ops))
    "us" ph.sim_ops;
  Printf.printf "  %-34s %16.6f %-6s (%d failed of %d)\n" "fail_ratio"
    (ratio (float_of_int ph.failed) ops)
    "" ph.failed ph.ops;
  report_problems ph;
  print_result
    ~correct:(ph.problems = [] && ph.failed = 0)
    ~attempted:ph.ops ~failed:ph.failed metrics

(* {1 Per layer (--trace 1)} *)

type span_totals = {
  mutable ops : int;
  mutable op_ns : int;
  mutable single_n : int;
  mutable single_ns : int;
  mutable block_ns : int;
  mutable bus_ns : int;
  mutable wait_ns : int;  (* await and drain *)
  mutable fifo_polls : int;
  mutable unbalanced : int;
      (* op spans whose subtree self times do not sum to them *)
}

(* Reduces the recorded spans: self times, then totals over the spans
   under each op span. *)
let span_totals (sp : Spans.t) =
  let n = sp.n in
  let self = Stats.self_times ~parent:sp.parent ~start:sp.start ~stop:sp.stop n in
  let sums = Stats.subtree_sums ~parent:sp.parent self n in
  let t =
    {
      ops = 0;
      op_ns = 0;
      single_n = 0;
      single_ns = 0;
      block_ns = 0;
      bus_ns = 0;
      wait_ns = 0;
      fifo_polls = 0;
      unbalanced = 0;
    }
  in
  let in_op = Array.make n false in
  for i = 0 to n - 1 do
    let k = sp.kind.{i} and p = sp.parent.{i} in
    let dur = sp.stop.{i} - sp.start.{i} in
    in_op.(i) <- k = Spans.op || (p >= 0 && in_op.(p));
    if k = Spans.op then begin
      t.ops <- t.ops + 1;
      t.op_ns <- t.op_ns + dur;
      if sums.(i) <> dur then t.unbalanced <- t.unbalanced + 1
    end
    else if in_op.(i) then
      if Spans.is_bus k then begin
        t.bus_ns <- t.bus_ns + dur;
        if k = Spans.bus_read || k = Spans.bus_write then begin
          t.single_n <- t.single_n + 1;
          t.single_ns <- t.single_ns + dur;
          if k = Spans.bus_read && sp.addr.{i} = M.gfx_mmio_base then
            t.fifo_polls <- t.fifo_polls + 1
        end
        else t.block_ns <- t.block_ns + dur
      end
      else if k = Spans.await || k = Spans.drain then
        t.wait_ns <- t.wait_ns + dur
  done;
  (t, self)

(* Self time per span kind, for the report. *)
let print_kinds (sp : Spans.t) self =
  let k = Array.length Spans.kind_names in
  let count = Array.make k 0
  and total = Array.make k 0
  and own = Array.make k 0 in
  for i = 0 to sp.n - 1 do
    let c = sp.kind.{i} in
    count.(c) <- count.(c) + 1;
    total.(c) <- total.(c) + (sp.stop.{i} - sp.start.{i});
    own.(c) <- own.(c) + self.(i)
  done;
  Printf.printf "  %-20s %10s %14s %14s\n" "span" "count" "total_ms" "self_ms";
  Array.iteri
    (fun c name ->
      if count.(c) > 0 then
        Printf.printf "  %-20s %10d %14.3f %14.3f\n" name count.(c)
          (float_of_int total.(c) /. 1e6)
          (float_of_int own.(c) /. 1e6))
    Spans.kind_names

let plain_machine_probes () =
  let m = M.create () in
  let tele () =
    Harness.per_call ~samples:21 ~iters:1000 (fun () -> M.telemetry_tick m)
    /. 1e3
  in
  let sched = M.sched m in
  let idle () = Async_soak.idle_tick_us sched in
  let tele_first = tele () and idle_first = idle () in
  for _ = 1 to Async_soak.ticks_per_round do
    Devil_runtime.Sched.tick sched
  done;
  (tele_first, tele (), idle_first, idle ())

let median_latency (ph : Harness.phase) =
  match Stats.percentile (sorted_latencies ph) 0.5 with
  | Some (v, _) -> float_of_int v
  | None -> 0.0

let per_layer w ~seed ~seconds =
  (* Floors first, on the fresh heap, so that they read the same
     whichever workload's run measures them. *)
  let floors = Floors.run () in
  let budget = seconds * 1_000_000_000 / 2 in
  let plain = Harness.phase ~capacity:w.traced_ops in
  w.run ~seed ~stop:(Harness.Until (Clock.ns () + budget)) Spans.disabled plain;
  let sp = Spans.create span_capacity in
  let traced = Harness.phase ~capacity:(plain.ops + 1) in
  w.run ~seed ~stop:(Harness.Units plain.units) sp traced;
  let mismatch =
    List.filter
      (fun (k, v) -> List.assoc_opt k traced.counts <> Some v)
      plain.counts
  in
  List.iter
    (fun (k, v) ->
      Harness.problem traced "count %s: %d untraced, %s traced" k v
        (match List.assoc_opt k traced.counts with
        | Some t -> string_of_int t
        | None -> "missing"))
    mismatch;
  if plain.ops <> traced.ops || plain.sim_us <> traced.sim_us then
    Harness.problem traced
      "traced run did %d ops (sim %.17g us), untraced %d (sim %.17g us)"
      traced.ops traced.sim_us plain.ops plain.sim_us;
  if sp.overflow then Harness.problem traced "span buffer full";
  let t, self = span_totals sp in
  let count name = Option.value ~default:0 (List.assoc_opt name traced.counts) in
  if
    t.single_n <> count "io.reads" + count "io.writes"
    || sp.block_elems <> count "io.block_items"
  then
    Harness.problem traced
      "bus spans (%d singles, %d block elements) disagree with the io \
       space (%d, %d)"
      t.single_n sp.block_elems
      (count "io.reads" + count "io.writes")
      (count "io.block_items");
  if t.unbalanced > 0 then
    Harness.problem traced "%d op spans whose self times do not sum to them"
      t.unbalanced;
  let tele_first, tele_last, idle_first, idle_last =
    if w.name = "async_soak" then
      let rounds = Harness.layer traced "rounds" in
      ( Harness.layer traced "telemetry.first_ns" /. rounds /. 1e3,
        Harness.layer traced "telemetry.last_ns" /. rounds /. 1e3,
        Async_soak.fresh_idle_tick_us (),
        Harness.layer traced "idle_tick.last_us" /. rounds )
    else plain_machine_probes ()
  in
  let per_round name =
    ratio (Harness.layer traced name) (Harness.layer traced "rounds")
  in
  let ops = float_of_int traced.ops in
  let count name = float_of_int (count name) in
  let drop_ops, drops, hand_drops =
    if w.name = "gfx_2d" then Gfx_2d.unsynced_drops ~seed else (0, 0, 0)
  in
  if hand_drops > 0 then
    Harness.problem traced "hand-written driver dropped %d writes unsynchronised"
      hand_drops;
  (* Last, so that the heap it grows does not slow the runs above. *)
  let explore = Explore_floor.run ~seed traced in
  let op_ns = float_of_int t.op_ns and top = float_of_int t.ops in
  let metrics =
    [
      metric "bus.singles_per_op" "count" (ratio (float_of_int t.single_n) top);
      metric "bus.block_elems_per_op" "count"
        (ratio (float_of_int sp.block_elems) top);
      metric "bus.busy_share" "share" (ratio (float_of_int t.bus_ns) op_ns);
      metric "bus.ns_per_single" "ns"
        (ratio (float_of_int t.single_ns) (float_of_int t.single_n));
      metric "bus.ns_per_block_elem" "ns"
        (ratio (float_of_int t.block_ns) (float_of_int sp.block_elems));
      metric "stub.self_us_per_op" "us"
        (ratio (float_of_int (t.op_ns - t.bus_ns)) top /. 1e3);
      metric "gfx.fifo_polls_per_op" "count"
        (ratio (float_of_int t.fifo_polls) top);
      metric "gfx.unsynced_drop_ops" "count" (float_of_int drop_ops)
        ~note:
          (Printf.sprintf "(of %d unsynchronised primitives; %d writes lost)"
             Gfx_2d.probe_ops drops);
      metric "sched.ticks_per_op" "count" (ratio (count "sched.ticks") ops);
      metric "sched.irqs_per_op" "count" (ratio (count "sched.irqs") ops);
      metric "sched.await_share" "share" (ratio (float_of_int t.wait_ns) op_ns);
      metric "sched.idle_tick_us.first" "us" idle_first;
      metric "sched.idle_tick_us.last" "us" idle_last;
      metric "telemetry.tick_us.first" "us" tele_first;
      metric "telemetry.tick_us.last" "us" tele_last;
      metric "trace.events_per_op" "count" (ratio (count "trace.events") ops);
      metric "trace.dropped_events" "count" (per_round "trace.dropped")
        ~note:"(per round)";
      metric "lifecycle.retained_requests" "count"
        (per_round "lifecycle.retained") ~note:"(per round)";
      metric "trace.overhead_share" "share"
        (ratio (median_latency traced) (median_latency plain) -. 1.0)
        ~note:"(median op, traced over untraced)";
    ]
    @ List.map
        (fun (name, v) ->
          metric name
            (if String.ends_with ~suffix:"_us" name then "us" else "ns")
            v ~note:"(floor)")
        floors
    @ List.map
        (fun (name, unit, v) -> metric name unit v ~note:"(exploration floor)")
        explore
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=1\n" w.name seed seconds;
  Printf.printf "  untraced: %d ops in %.3f s; traced replay: %d ops in %.3f s\n"
    plain.ops (float_of_int plain.op_ns /. 1e9) traced.ops
    (float_of_int traced.op_ns /. 1e9);
  print_kinds sp self;
  report_problems plain;
  report_problems traced;
  print_result
    ~correct:
      (plain.problems = [] && traced.problems = [] && plain.failed = 0
     && traced.failed = 0)
    ~attempted:(plain.ops + traced.ops)
    ~failed:(plain.failed + traced.failed)
    metrics

(* {1 Command line} *)

let run_all ~seed ~seconds ~trace =
  let failures =
    List.filter
      (fun w ->
        let args =
          [|
            Sys.executable_name;
            "--workload";
            w.name;
            "--seed";
            string_of_int seed;
            "--seconds";
            string_of_int seconds;
            "--trace";
            string_of_int trace;
          |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  if failures <> [] then exit 1

let () =
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then begin
        Printf.eprintf "perfbench: refusing to start: %s is set\n" var;
        exit 2
      end)
    refused_env;
  keep_freed_memory ();
  let workload = ref ""
  and seed = ref None
  and seconds = ref None
  and trace = ref None
  and setup_for = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string_opt v;
        parse rest
    | "--setup-child" :: v :: rest ->
        setup_for := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let find name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  match (!setup_for, !seed, !seconds, !trace) with
  | Some name, _, _, _ -> setup_child (find name)
  | None, Some seed, Some seconds, Some trace
    when seconds > 0 && (trace = 0 || trace = 1) ->
      if !workload = "all" then run_all ~seed ~seconds ~trace
      else if trace = 0 then end_to_end (find !workload) ~seed ~seconds
      else per_layer (find !workload) ~seed ~seconds
  | _ -> usage ()
