(* The observability layer: bounded ring traces, the counter registry,
   the transparent bus observer, the instrumented stubs and policies,
   and the two bugfixes that rode along (bounded fault trace, bounds-
   checked memory bus). *)

module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Instance = Devil_runtime.Instance
module Machine = Drivers.Machine
module Value = Devil_ir.Value

let case name f = Alcotest.test_case name `Quick f

let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* {1 The ring buffer} *)

let test_ring_bound () =
  let r = Trace.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.Ring.add r i
  done;
  Alcotest.(check (list int)) "retains the last 4, oldest first" [ 7; 8; 9; 10 ]
    (Trace.Ring.to_list r);
  Alcotest.(check int) "length" 4 (Trace.Ring.length r);
  Alcotest.(check int) "total" 10 (Trace.Ring.total r);
  Alcotest.(check int) "dropped" 6 (Trace.Ring.dropped r);
  Trace.Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Trace.Ring.to_list r);
  Alcotest.(check int) "clear rewinds dropped" 0 (Trace.Ring.dropped r)

let test_ring_clamps_capacity () =
  let r = Trace.Ring.create ~capacity:0 in
  Trace.Ring.add r 1;
  Trace.Ring.add r 2;
  Alcotest.(check int) "capacity clamped to 1" 1 (Trace.Ring.capacity r);
  Alcotest.(check (list int)) "keeps the newest" [ 2 ] (Trace.Ring.to_list r)

let test_trace_eviction_keeps_seq () =
  let tr = Trace.create ~capacity:3 () in
  for i = 0 to 4 do
    Trace.emit tr (Trace.Bus_read { addr = i; width = 8; value = 0 })
  done;
  Alcotest.(check (list int)) "sequence numbers reveal the gap" [ 2; 3; 4 ]
    (List.map (fun (e : Trace.event) -> e.seq) (Trace.events tr));
  Alcotest.(check int) "recorded" 5 (Trace.recorded tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr)

(* {1 The trace store against a list model}

   Random sequences over all 23 kinds, at capacities from 1 to past a
   store chunk, emitted in bursts that cross the wrap point, with
   [clear] and [merge] in between. The model is the plain list of the
   last [capacity] events; every read-out of the store and the
   subscriber stream must agree with it. *)

let text_gen = QCheck.Gen.oneofl [ ""; "ide"; "reg"; "ne2000"; "a\"b"; "x y" ]

let kind_gen =
  QCheck.Gen.(
    let s = text_gen and i = oneof [ int; int_bound 1000; return (-1) ] in
    let strs = list_size (int_bound 3) text_gen in
    oneof
      [
        map3 (fun addr width value -> Trace.Bus_read { addr; width; value }) i i i;
        map3 (fun addr width value -> Trace.Bus_write { addr; width; value }) i i i;
        map3
          (fun addr width count -> Trace.Bus_block_read { addr; width; count })
          i i i;
        map3
          (fun addr width count -> Trace.Bus_block_write { addr; width; count })
          i i i;
        map3 (fun dev reg raw -> Trace.Reg_read { dev; reg; raw }) s s i;
        map3 (fun dev reg raw -> Trace.Reg_write { dev; reg; raw }) s s i;
        map2 (fun dev var -> Trace.Var_read { dev; var }) s s;
        map3 (fun dev var regs -> Trace.Var_write { dev; var; regs }) s s strs;
        map2
          (fun (dev, strct) (fields, regs) ->
            Trace.Struct_write { dev; strct; fields; regs })
          (pair s s) (pair strs strs);
        map2 (fun dev reg -> Trace.Cache_hit { dev; reg }) s s;
        map2 (fun dev reg -> Trace.Cache_miss { dev; reg }) s s;
        map (fun dev -> Trace.Cache_invalidated { dev }) s;
        map2
          (fun (dev, owner) (phase, assignments) ->
            Trace.Action { dev; owner; phase; assignments })
          (pair s s)
          (pair (oneofl [ Trace.Pre; Trace.Post; Trace.Set ]) i);
        map3 (fun dev owner order -> Trace.Serialized { dev; owner; order }) s s strs;
        map2
          (fun (label, iters) (ok, rid) -> Trace.Poll { label; iters; ok; rid })
          (pair s i) (pair bool i);
        map2
          (fun (label, attempt) (reason, rid) ->
            Trace.Retry { label; attempt; reason; rid })
          (pair s i) (pair s i);
        map2
          (fun (plan, addr) (width, detail) ->
            Trace.Fault_injected { plan; addr; width; detail })
          (pair s i) (pair i s);
        map3 (fun line dev rid -> Trace.Irq_raised { line; dev; rid }) i s i;
        map3 (fun line dev rid -> Trace.Irq_delivered { line; dev; rid }) i s i;
        map2
          (fun (dev, label) (depth, rid) ->
            Trace.Queue_submitted { dev; label; depth; rid })
          (pair s s) (pair i i);
        map3 (fun dev label rid -> Trace.Queue_started { dev; label; rid }) s s i;
        map3
          (fun (dev, label) (depth, ok) rid ->
            Trace.Queue_completed { dev; label; depth; ok; rid })
          (pair s s) (pair i bool) i;
        map2 (fun dev rid -> Trace.Queue_late { dev; rid }) s i;
      ])

type store_op =
  | Emit of Trace.kind
  | Burst of int * Trace.kind  (* the same kind, n times *)
  | Clear
  | Merge of int option * Trace.kind list  (* with a fresh shard *)

let store_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun k -> Emit k) kind_gen);
        (2, map2 (fun n k -> Burst (n, k)) (int_range 1 2500) kind_gen);
        (1, return Clear);
        ( 1,
          map2
            (fun c ks -> Merge (c, ks))
            (opt (int_range 0 40))
            (list_size (int_bound 12) kind_gen) );
      ])

let print_store_op = function
  | Emit k -> Format.asprintf "emit %a" Trace.pp_kind k
  | Burst (n, k) -> Format.asprintf "burst %d x %a" n Trace.pp_kind k
  | Clear -> "clear"
  | Merge (c, ks) ->
      Printf.sprintf "merge ?capacity:%s with %d event(s)"
        (match c with Some c -> string_of_int c | None -> "-")
        (List.length ks)

(* The model: the capacity, the events recorded since creation or
   [clear], the newest of them (newest first; at least the last
   [m_cap], trimmed now and then) and the clock. *)
type model = {
  m_cap : int;
  m_recorded : int;
  m_rev : Trace.event list;
  m_next : int;
}

let model_create cap = { m_cap = max 1 cap; m_recorded = 0; m_rev = []; m_next = 0 }

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let model_emit m kind =
  let rev = { Trace.seq = m.m_next; kind } :: m.m_rev in
  {
    m with
    m_recorded = m.m_recorded + 1;
    m_rev = (if m.m_recorded mod m.m_cap = 0 then take m.m_cap rev else rev);
    m_next = m.m_next + 1;
  }

let model_events m = List.rev (take m.m_cap m.m_rev)

(* A stable merge by sequence number, the left shard first on ties. *)
let model_merge ?capacity a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (x : Trace.event) :: xs', (y : Trace.event) :: ys' ->
        if x.seq <= y.seq then x :: go xs' ys else y :: go xs ys'
  in
  let all = go (model_events a) (model_events b) in
  let cap = max 1 (Option.value capacity ~default:(max a.m_cap b.m_cap)) in
  {
    m_cap = cap;
    m_recorded = List.length all;
    m_rev = take cap (List.rev all);
    m_next = max a.m_next b.m_next;
  }

let prop_trace_store_matches_model =
  QCheck.Test.make ~name:"trace store agrees with a list model"
    ~count:(qcount 200)
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map print_store_op ops)))
       QCheck.Gen.(
         pair
           (oneof [ int_range 1 8; int_range 9 64; int_range 1000 1100 ])
           (list_size (int_bound 40) store_op_gen)))
    (fun (cap, ops) ->
      let seen = ref [] and expected = ref [] in
      let watch tr = Trace.subscribe tr (fun e -> seen := e :: !seen) in
      let tr = Trace.create ~capacity:cap () in
      watch tr;
      let emit (tr, m) kind =
        Trace.emit tr kind;
        let m = model_emit m kind in
        expected := List.hd m.m_rev :: !expected;
        (tr, m)
      in
      let step (tr, m) = function
        | Emit k -> emit (tr, m) k
        | Burst (n, k) ->
            let s = ref (tr, m) in
            for _ = 1 to n do
              s := emit !s k
            done;
            !s
        | Clear ->
            Trace.clear tr;
            (tr, model_create m.m_cap)
        | Merge (capacity, ks) ->
            let shard = Trace.create ~capacity:16 () in
            List.iter (Trace.emit shard) ks;
            let shard_m = List.fold_left model_emit (model_create 16) ks in
            let merged = Trace.merge ?capacity tr shard in
            watch merged;
            (merged, model_merge ?capacity m shard_m)
      in
      let tr, m = List.fold_left step (tr, model_create cap) ops in
      let pp_list es =
        String.concat ""
          (List.map (fun e -> Format.asprintf "%a@." Trace.pp_event e) es)
      in
      Trace.events tr = model_events m
      && Trace.length tr = min m.m_recorded m.m_cap
      && Trace.recorded tr = m.m_recorded
      && Trace.dropped tr = max 0 (m.m_recorded - m.m_cap)
      && Trace.capacity tr = m.m_cap
      && Format.asprintf "%a" Trace.pp tr = pp_list (model_events m)
      && !seen = !expected)

(* With the ring already full, bus, register and cache events leave
   nothing behind for the next minor collection to promote: the store
   keeps their ints unboxed and their labels by reference. *)
let test_full_ring_promotes_nothing () =
  let tr = Trace.create ~capacity:65536 () in
  let dev = "ide" and reg = "status" in
  let burst n =
    for i = 1 to n do
      Trace.emit tr (Trace.Bus_read { addr = i; width = 8; value = i land 0xff });
      Trace.emit tr (Trace.Reg_write { dev; reg; raw = i });
      Trace.emit tr
        (if i land 1 = 0 then Trace.Cache_hit { dev; reg }
         else Trace.Cache_miss { dev; reg })
    done
  in
  burst 22_000;
  Alcotest.(check int) "the ring is full" 65536 (Trace.length tr);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  burst 3_334;
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  let per_event = promoted /. 10_002. in
  if per_event >= 1.0 then
    Alcotest.failf "%.2f promoted words per event (cap 1)" per_event

(* {1 Metric handles against names alone}

   A random mix of counter and histogram updates, each made through a
   handle or by name, must leave the registry exactly as the same
   updates made by name only; the handles for the unused names list
   nothing. *)

let metric_names = [ "a"; "b.c"; "sched.ticks"; "x" ]

let metric_op_gen =
  QCheck.Gen.(
    triple bool (oneofl metric_names)
      (pair bool (oneof [ int_range (-3) 3; int_bound 5_000 ])))

let prop_handles_match_names =
  QCheck.Test.make ~name:"handles and names build the same registry"
    ~count:(qcount 200)
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (triple bool string (pair bool int)))
       QCheck.Gen.(list_size (int_bound 40) metric_op_gen))
    (fun ops ->
      let by_name = Metrics.create () and mixed = Metrics.create () in
      (* Handles for every name, and for one that is never used. *)
      let counters =
        List.map (fun n -> (n, Metrics.Counter.make mixed n)) ("unused" :: metric_names)
      and hists =
        List.map
          (fun n -> (n, Metrics.Histogram.make mixed ("h." ^ n)))
          ("unused" :: metric_names)
      in
      List.iter
        (fun (via_handle, name, (is_hist, v)) ->
          if is_hist then begin
            Metrics.observe by_name ("h." ^ name) v;
            if via_handle then Metrics.Histogram.observe (List.assoc name hists) v
            else Metrics.observe mixed ("h." ^ name) v
          end
          else begin
            Metrics.incr by_name ~by:v name;
            if via_handle then
              if v = 1 then Metrics.Counter.incr (List.assoc name counters)
              else Metrics.Counter.add (List.assoc name counters) v
            else Metrics.incr mixed ~by:v name
          end)
        ops;
      Metrics.counters mixed = Metrics.counters by_name
      && Metrics.histograms mixed = Metrics.histograms by_name
      && Metrics.to_json mixed = Metrics.to_json by_name
      && Metrics.count mixed "unused" = 0
      && not (List.mem_assoc "unused" (Metrics.counters mixed)))

(* {1 The observed bus: transparency} *)

let test_disabled_observer_is_identity () =
  let bus = Bus.memory () in
  Alcotest.(check bool) "no handles: the same bus comes back" true
    (Bus.observed bus == bus)

(* Random bus traffic (the PR 1 wrapper-transparency pattern). *)
type traffic =
  | T_read of int
  | T_write of int * int
  | T_read_block of int * int
  | T_write_block of int * int list

let traffic_gen =
  QCheck.Gen.(
    let addr = int_bound 31 in
    oneof
      [
        map (fun a -> T_read a) addr;
        map2 (fun a v -> T_write (a, v)) addr (int_bound 0xffff);
        map2 (fun a n -> T_read_block (a, n)) addr (int_range 1 8);
        map2
          (fun a vs -> T_write_block (a, vs))
          addr
          (list_size (int_range 1 8) (int_bound 0xffff));
      ])

let apply_traffic bus ops =
  List.concat_map
    (fun op ->
      match op with
      | T_read a -> [ bus.Bus.read ~width:8 ~addr:a ]
      | T_write (a, v) ->
          bus.Bus.write ~width:8 ~addr:a ~value:v;
          []
      | T_read_block (a, n) ->
          let into = Array.make n 0 in
          bus.Bus.read_block ~width:8 ~addr:a ~into;
          Array.to_list into
      | T_write_block (a, vs) ->
          bus.Bus.write_block ~width:8 ~addr:a ~from:(Array.of_list vs);
          [])
    ops

let prop_observed_bus_transparent =
  QCheck.Test.make
    ~name:"observed bus is observationally identical to the raw bus"
    ~count:(qcount 200)
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) traffic_gen))
    (fun ops ->
      let raw = apply_traffic (Bus.memory ()) ops in
      let trace = Trace.create ~capacity:16 () in
      let metrics = Metrics.create () in
      let wrapped =
        apply_traffic (Bus.observed ~trace ~metrics (Bus.memory ())) ops
      in
      wrapped = raw)

let prop_observed_bus_counts_every_op =
  QCheck.Test.make
    ~name:"observed bus records exactly one event per bus transaction"
    ~count:(qcount 200)
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) traffic_gen))
    (fun ops ->
      let trace = Trace.create ~capacity:1_000 () in
      let metrics = Metrics.create () in
      ignore (apply_traffic (Bus.observed ~trace ~metrics (Bus.memory ())) ops);
      let c = Metrics.count metrics in
      Trace.recorded trace = List.length ops
      && c "bus.reads" + c "bus.writes" + c "bus.block_reads"
         + c "bus.block_writes"
         = List.length ops)

(* {1 The observed bus: hand-counted workload} *)

let test_metrics_hand_counted () =
  let metrics = Metrics.create () in
  let bus = Bus.observed ~metrics (Bus.memory ()) in
  ignore (bus.Bus.read ~width:8 ~addr:0);
  ignore (bus.Bus.read ~width:8 ~addr:1);
  ignore (bus.Bus.read ~width:16 ~addr:2);
  bus.Bus.write ~width:8 ~addr:0 ~value:1;
  bus.Bus.write ~width:32 ~addr:1 ~value:2;
  bus.Bus.read_block ~width:8 ~addr:3 ~into:(Array.make 4 0);
  bus.Bus.write_block ~width:8 ~addr:3 ~from:(Array.make 5 0);
  let check name expected =
    Alcotest.(check int) name expected (Metrics.count metrics name)
  in
  check "bus.reads" 3;
  check "bus.writes" 2;
  check "bus.block_reads" 1;
  check "bus.block_writes" 1;
  check "bus.read_items" 4;
  check "bus.write_items" 5;
  (* bytes: singles 1+1+2 read, 1+4 written; blocks 4 read, 5 written *)
  check "bus.bytes_read" 8;
  check "bus.bytes_written" 10;
  match Metrics.histogram metrics "bus.block_len" with
  | None -> Alcotest.fail "bus.block_len histogram missing"
  | Some h ->
      Alcotest.(check int) "block_len samples" 2 h.Metrics.count;
      Alcotest.(check int) "block_len min" 4 h.Metrics.min;
      Alcotest.(check int) "block_len max" 5 h.Metrics.max

let test_json_mentions_counters () =
  let metrics = Metrics.create () in
  Metrics.incr metrics "bus.reads";
  Metrics.observe metrics "poll.iters" 3;
  let json = Metrics.to_json metrics in
  let has needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter in JSON" true (has "\"bus.reads\": 1");
  Alcotest.(check bool) "histogram in JSON" true (has "\"poll.iters\"")

(* {1 Machine cross-check: metrics vs the simulator's own stats} *)

let test_machine_metrics_match_io_space () =
  let metrics = Metrics.create () in
  let m = Machine.create ~metrics () in
  Fun.protect ~finally:Policy.unobserve (fun () ->
      let mouse = Drivers.Mouse.Devil_driver.create m.mouse_dev in
      ignore (Drivers.Mouse.Devil_driver.read_state mouse);
      let ide =
        Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev
      in
      ignore
        (Drivers.Ide.Devil_driver.read_sectors ide ~lba:0 ~count:1 ~mult:1
           ~path:`Block ~width:`W16));
  let s = Machine.stats m in
  let c = Metrics.count metrics in
  Alcotest.(check int) "single reads agree" s.Hwsim.Io_space.reads
    (c "bus.reads");
  Alcotest.(check int) "single writes agree" s.Hwsim.Io_space.writes
    (c "bus.writes");
  Alcotest.(check int) "block transactions agree" s.Hwsim.Io_space.block_ops
    (c "bus.block_reads" + c "bus.block_writes");
  Alcotest.(check int) "block elements agree" s.Hwsim.Io_space.block_items
    (c "bus.read_items" + c "bus.write_items");
  Alcotest.(check int) "io_ops equals the metrics total" (Machine.io_ops m)
    (c "bus.reads" + c "bus.writes" + c "bus.read_items" + c "bus.write_items")

(* {1 Instance instrumentation: cache hits and misses} *)

let compile_ok src =
  match Devil_check.Check.compile src with
  | Ok d -> d
  | Error diags ->
      Alcotest.fail (Format.asprintf "%a" Devil_syntax.Diagnostics.pp diags)

let test_cache_hit_miss () =
  let device =
    compile_ok
      "device d (base : bit[8] port @ {0..1}) {
         register a = base @ 0 : bit[8]; variable v = a : int(8);
         register b = base @ 1 : bit[8]; variable vb = b : int(8);
       }"
  in
  let trace = Trace.create ~capacity:32 () in
  let metrics = Metrics.create () in
  let inst =
    Instance.create ~label:"d" ~trace ~metrics device ~bus:(Bus.memory ())
      ~bases:[ ("base", 0) ]
  in
  ignore (Instance.get inst "v");
  Alcotest.(check int) "first read misses" 1 (Metrics.count metrics "cache.d.misses");
  Alcotest.(check int) "no hit yet" 0 (Metrics.count metrics "cache.d.hits");
  ignore (Instance.get inst "v");
  Alcotest.(check int) "second read hits" 1 (Metrics.count metrics "cache.d.hits");
  Alcotest.(check int) "register read happened once" 1
    (Metrics.count metrics "reg.d.a.reads");
  Alcotest.(check (option (float 1e-6))) "hit ratio" (Some 0.5)
    (Metrics.ratio metrics ~hits:"cache.d.hits" ~misses:"cache.d.misses");
  let kinds = List.map (fun (e : Trace.event) -> e.kind) (Trace.events trace) in
  Alcotest.(check bool) "trace saw the miss" true
    (List.exists
       (function Trace.Cache_miss { dev = "d"; reg = "a" } -> true | _ -> false)
       kinds);
  Alcotest.(check bool) "trace saw the hit" true
    (List.exists
       (function Trace.Cache_hit { dev = "d"; reg = "a" } -> true | _ -> false)
       kinds);
  Alcotest.(check bool) "trace saw the register read" true
    (List.exists
       (function Trace.Reg_read { dev = "d"; reg = "a"; _ } -> true | _ -> false)
       kinds)

(* {1 Bugfix: the memory bus checks its bounds} *)

let test_memory_bus_bounds () =
  let bus = Bus.memory ~size:16 () in
  (match bus.Bus.read ~width:8 ~addr:16 with
  | _ -> Alcotest.fail "out-of-range read did not raise"
  | exception Fault.Bus_fault _ -> ());
  (match bus.Bus.write ~width:8 ~addr:(-1) ~value:0 with
  | _ -> Alcotest.fail "negative-address write did not raise"
  | exception Fault.Bus_fault _ -> ());
  (* In-range traffic is untouched. *)
  bus.Bus.write ~width:8 ~addr:15 ~value:42;
  Alcotest.(check int) "in-range access works" 42 (bus.Bus.read ~width:8 ~addr:15)

let test_memory_bus_fault_is_classifiable () =
  let bus = Bus.memory ~size:16 () in
  match
    Policy.guarded ~label:"oob" (fun () -> bus.Bus.read ~width:8 ~addr:999)
  with
  | _ -> Alcotest.fail "guarded did not classify the bounds fault"
  | exception Policy.Driver_error (Policy.Bus_fault msg) ->
      Alcotest.(check bool) "label present" true (String.length msg > 3)

(* {1 Bugfix: the fault injector's trace is bounded} *)

let test_fault_trace_bounded () =
  let inj =
    Fault.wrap ~trace_capacity:4
      ~plans:
        [
          Fault.plan ~label:"flip" ~ops:[ Fault.Read ] ~first:0 ~last:0
            (Fault.Flip_bits { mask = 0x1; probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  for _ = 1 to 10 do
    ignore (bus.Bus.read ~width:8 ~addr:0)
  done;
  Alcotest.(check int) "all injections counted" 10 (Fault.injection_count inj);
  Alcotest.(check int) "trace bounded at 4" 4 (List.length (Fault.events inj));
  Alcotest.(check int) "evictions reported" 6 (Fault.dropped_events inj);
  Fault.reset inj;
  Alcotest.(check int) "reset clears the trace" 0
    (List.length (Fault.events inj));
  Alcotest.(check int) "reset clears evictions" 0 (Fault.dropped_events inj)

let test_fault_sink_mirrors_injections () =
  let sink = Trace.create ~capacity:32 () in
  let metrics = Metrics.create () in
  let inj =
    Fault.wrap ~sink ~metrics
      ~plans:
        [
          Fault.plan ~label:"flip" ~ops:[ Fault.Read ] ~first:0 ~last:0
            (Fault.Flip_bits { mask = 0x1; probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  ignore (bus.Bus.read ~width:8 ~addr:0);
  ignore (bus.Bus.read ~width:8 ~addr:0);
  let mirrored =
    List.filter
      (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Fault_injected { plan = "flip"; addr = 0; _ } -> true
        | _ -> false)
      (Trace.events sink)
  in
  Alcotest.(check int) "both injections mirrored" 2 (List.length mirrored);
  Alcotest.(check int) "total counter" 2
    (Metrics.count metrics "fault.injections");
  Alcotest.(check int) "per-plan counter" 2
    (Metrics.count metrics "fault.flip.injections")

(* {1 Policy observer} *)

let with_observer f =
  let trace = Trace.create ~capacity:64 () in
  let metrics = Metrics.create () in
  Policy.observe ~trace ~metrics ();
  Fun.protect ~finally:Policy.unobserve (fun () -> f trace metrics)

let test_poll_metrics () =
  with_observer (fun trace metrics ->
      let k = ref 0 in
      Alcotest.(check bool) "poll satisfied" true
        (Policy.try_poll ~deadline:100 ~label:"third" (fun () ->
             incr k;
             !k >= 3));
      Alcotest.(check int) "poll.runs" 1 (Metrics.count metrics "poll.runs");
      Alcotest.(check int) "poll.ticks counts evaluations" 3
        (Metrics.count metrics "poll.ticks");
      Alcotest.(check int) "no timeout" 0 (Metrics.count metrics "poll.timeouts");
      Alcotest.(check bool) "trace has the poll" true
        (List.exists
           (fun (e : Trace.event) ->
             match e.kind with
             | Trace.Poll { label = "third"; iters = 3; ok = true; _ } -> true
             | _ -> false)
           (Trace.events trace)))

let test_poll_timeout_metrics () =
  with_observer (fun trace metrics ->
      Alcotest.(check bool) "poll expires" false
        (Policy.try_poll ~deadline:5 ~label:"never" (fun () -> false));
      Alcotest.(check int) "timeout counted" 1
        (Metrics.count metrics "poll.timeouts");
      Alcotest.(check int) "ticks charged" 5 (Metrics.count metrics "poll.ticks");
      Alcotest.(check bool) "trace records the failed poll" true
        (List.exists
           (fun (e : Trace.event) ->
             match e.kind with
             | Trace.Poll { label = "never"; ok = false; _ } -> true
             | _ -> false)
           (Trace.events trace)))

let test_retry_metrics () =
  with_observer (fun trace metrics ->
      let calls = ref 0 in
      let v =
        Policy.with_retries ~attempts:3 ~label:"flaky" (fun () ->
            incr calls;
            if !calls < 3 then raise (Fault.Bus_fault "transient") else 7)
      in
      Alcotest.(check int) "succeeded on third call" 7 v;
      Alcotest.(check int) "two retries" 2 (Metrics.count metrics "retry.attempts");
      Alcotest.(check int) "nothing exhausted" 0
        (Metrics.count metrics "retry.exhausted");
      Alcotest.(check int) "trace has both retries" 2
        (List.length
           (List.filter
              (fun (e : Trace.event) ->
                match e.kind with
                | Trace.Retry { label = "flaky"; _ } -> true
                | _ -> false)
              (Trace.events trace)));
      (match
         Policy.with_retries ~attempts:2 ~label:"doomed" (fun () ->
             raise (Fault.Bus_fault "always"))
       with
      | _ -> Alcotest.fail "exhausted retries did not raise"
      | exception Policy.Driver_error (Policy.Degraded _) -> ());
      Alcotest.(check int) "budget exhaustion counted" 1
        (Metrics.count metrics "retry.exhausted"))

let test_unobserve_stops_recording () =
  let metrics = Metrics.create () in
  Policy.observe ~metrics ();
  Policy.unobserve ();
  ignore (Policy.try_poll ~deadline:3 (fun () -> true));
  Alcotest.(check int) "nothing recorded after unobserve" 0
    (Metrics.count metrics "poll.runs")

let () =
  Alcotest.run "observe"
    [
      ( "ring",
        [
          case "bound and eviction order" test_ring_bound;
          case "capacity clamp" test_ring_clamps_capacity;
          case "trace sequence numbers" test_trace_eviction_keeps_seq;
          QCheck_alcotest.to_alcotest prop_trace_store_matches_model;
          case "a full ring promotes nothing per event"
            test_full_ring_promotes_nothing;
        ] );
      ("handles", [ QCheck_alcotest.to_alcotest prop_handles_match_names ]);
      ( "bus",
        List.map QCheck_alcotest.to_alcotest
          [ prop_observed_bus_transparent; prop_observed_bus_counts_every_op ]
        @ [
            case "disabled observer is the identity"
              test_disabled_observer_is_identity;
            case "hand-counted workload" test_metrics_hand_counted;
            case "JSON rendering" test_json_mentions_counters;
          ] );
      ( "machine",
        [ case "metrics agree with Io_space stats" test_machine_metrics_match_io_space ] );
      ("instance", [ case "cache hits and misses" test_cache_hit_miss ]);
      ( "bugfixes",
        [
          case "memory bus bounds" test_memory_bus_bounds;
          case "bounds fault is classifiable" test_memory_bus_fault_is_classifiable;
          case "fault trace bounded" test_fault_trace_bounded;
          case "fault sink mirrors injections" test_fault_sink_mirrors_injections;
        ] );
      ( "policy",
        [
          case "poll counters" test_poll_metrics;
          case "poll timeout counters" test_poll_timeout_metrics;
          case "retry counters" test_retry_metrics;
          case "unobserve stops recording" test_unobserve_stops_recording;
        ] );
    ]
