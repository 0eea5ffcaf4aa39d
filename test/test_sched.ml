(* The event-driven scheduler (DESIGN.md §13): queue/timer/dispatch
   unit tests over a toy controller, the 8259A EOI re-dispatch
   regression, the shared receive-ring reassembly helper, the
   sync/async failure-taxonomy equivalence property, interrupt-path
   fault injection (scheduled and seeded), and the protocol-monitor
   oracle over the interrupt-driven drivers. *)

module Sched = Devil_runtime.Sched
module Policy = Devil_runtime.Policy
module Fault = Devil_runtime.Fault
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Ctx = Devil_runtime.Ctx
module Monitor = Devil_runtime.Monitor
module Machine = Drivers.Machine
module Ide = Drivers.Ide
module Net = Drivers.Net
module Specs = Devil_specs.Specs

let case name f = Alcotest.test_case name `Quick f

let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* A scheduler over a controller that never interrupts — enough for
   the queue and timer semantics. *)
let quiet_sched () =
  let metrics = Metrics.create () in
  let t =
    Sched.create ~ctx:(Ctx.create ~metrics ())
      {
        Sched.ctl_raise = (fun ~line:_ -> ());
        ctl_ack = (fun () -> None);
        ctl_eoi = (fun ~line:_ -> ());
      }
  in
  (t, metrics)

(* {1 Queues: FIFO order, completion/start overlap, the leak invariant} *)

let test_fifo_overlap () =
  let t, metrics = quiet_sched () in
  let log = ref [] in
  let push x = log := x :: !log in
  let mk i =
    Sched.submit t ~dev:"d"
      ~label:(Printf.sprintf "op%d" i)
      ~start:(fun () -> push (Printf.sprintf "start%d" i))
      ~on_done:(fun r ->
        push (Printf.sprintf "done%d:%s" i (match r with Ok () -> "ok" | Error _ -> "err")))
      ()
  in
  let r1 = mk 1 in
  let r2 = mk 2 in
  let r3 = mk 3 in
  Alcotest.(check int) "only the head is in flight" 3 (Sched.depth t ~dev:"d");
  Alcotest.(check (list string)) "head started at submit" [ "start1" ] (List.rev !log);
  Sched.complete t ~dev:"d" (Ok ());
  Sched.complete t ~dev:"d" (Ok ());
  Sched.complete t ~dev:"d" (Ok ());
  (* Completion and the next command's setup are one loop step. *)
  Alcotest.(check (list string)) "strict FIFO, next start inside the completion"
    [ "start1"; "done1:ok"; "start2"; "done2:ok"; "start3"; "done3:ok" ]
    (List.rev !log);
  List.iter
    (fun r ->
      match Sched.peek r with
      | Some (Ok ()) -> ()
      | _ -> Alcotest.fail "request did not finish Ok")
    [ r1; r2; r3 ];
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding t);
  Alcotest.(check int) "submits" 3 (Metrics.count metrics "sched.submits");
  Alcotest.(check int) "completions" 3 (Metrics.count metrics "sched.completions")

let test_timeout_classified () =
  let t, metrics = quiet_sched () in
  let aborted = ref false in
  let rq =
    Sched.submit t ~dev:"d" ~label:"op" ~timeout:5
      ~start:(fun () -> ())
      ~abort:(fun () -> aborted := true)
      ()
  in
  (match Sched.await t rq with
  | () -> Alcotest.fail "expected a timeout"
  | exception Policy.Driver_error (Policy.Timeout l) ->
      Alcotest.(check string) "the same classified Timeout a poll raises" "op" l);
  Alcotest.(check bool) "abort ran" true !aborted;
  Alcotest.(check int) "counted" 1 (Metrics.count metrics "sched.timeouts");
  Alcotest.(check int) "finished requests still complete" 1
    (Metrics.count metrics "sched.completions");
  (* A late interrupt after the timeout is accounted, not fatal. *)
  Sched.complete t ~dev:"d" (Ok ());
  Alcotest.(check int) "late completion is unhandled" 1
    (Metrics.count metrics "sched.irqs.unhandled");
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding t)

let test_start_failure_is_classified () =
  let t, _ = quiet_sched () in
  let rq =
    Sched.submit t ~dev:"d" ~label:"boom"
      ~start:(fun () -> Policy.fail (Policy.Device_fault "dead on issue"))
      ()
  in
  (match Sched.peek rq with
  | Some (Error (Policy.Device_fault _)) -> ()
  | _ -> Alcotest.fail "issue-time failure must classify immediately");
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding t)

(* {1 Timers: deadline/creation order, cancel, wheel wrap-around} *)

let test_timer_order_and_cancel () =
  let t, _ = quiet_sched () in
  let log = ref [] in
  let _a = Sched.after t ~ticks:2 (fun () -> log := "a" :: !log) in
  let b = Sched.after t ~ticks:1 (fun () -> log := "b" :: !log) in
  let _c = Sched.after t ~ticks:2 (fun () -> log := "c" :: !log) in
  Sched.cancel b;
  Sched.tick t;
  Alcotest.(check (list string)) "cancelled timer never fires" [] (List.rev !log);
  Sched.tick t;
  Alcotest.(check (list string)) "deadline then creation order" [ "a"; "c" ]
    (List.rev !log)

let test_timer_beyond_one_revolution () =
  let t, _ = quiet_sched () in
  let fired = ref false in
  (* 260 > the wheel size: the bucket is revisited once before the
     deadline is actually due. *)
  let _ = Sched.after t ~ticks:260 (fun () -> fired := true) in
  for _ = 1 to 259 do
    Sched.tick t
  done;
  Alcotest.(check bool) "not early" false !fired;
  Sched.tick t;
  Alcotest.(check bool) "fires on its revolution" true !fired

(* The wheel has 256 buckets; a deadline exactly one wheel size away
   lands in the bucket the clock is currently on, so the very first
   visit to that bucket (tick 1 of a fresh scheduler is bucket 1, the
   deadline's bucket comes around 255 ticks later... ) must not fire it
   early: the deadline comparison, not bucket membership, is what
   gates firing. *)
let test_timer_exact_wheel_size () =
  let t, _ = quiet_sched () in
  let fired = ref false in
  let _ = Sched.after t ~ticks:256 (fun () -> fired := true) in
  for _ = 1 to 255 do
    Sched.tick t
  done;
  Alcotest.(check bool) "silent through the first revolution" false !fired;
  Sched.tick t;
  Alcotest.(check bool) "fires exactly at one wheel size" true !fired

(* Two timers sharing a bucket, one revolution apart: visiting the
   bucket for the near deadline must leave the far one armed. *)
let test_timer_shared_bucket_one_revolution_apart () =
  let t, _ = quiet_sched () in
  let log = ref [] in
  let _near = Sched.after t ~ticks:4 (fun () -> log := "near" :: !log) in
  let _far = Sched.after t ~ticks:260 (fun () -> log := "far" :: !log) in
  for _ = 1 to 4 do
    Sched.tick t
  done;
  Alcotest.(check (list string)) "bucket visit fires only the due timer"
    [ "near" ] (List.rev !log);
  for _ = 5 to 259 do
    Sched.tick t
  done;
  Alcotest.(check (list string)) "far timer still pending at 259" [ "near" ]
    (List.rev !log);
  Sched.tick t;
  Alcotest.(check (list string)) "far timer fires one revolution later"
    [ "near"; "far" ] (List.rev !log)

(* A timer armed just before the clock's low byte wraps (clock 255 ->
   256) must survive the modulo boundary: deadline 257 lives in bucket
   1, which the wheel reaches after passing bucket 0. *)
let test_timer_across_wrap_boundary () =
  let t, _ = quiet_sched () in
  for _ = 1 to 255 do
    Sched.tick t
  done;
  let fired = ref false in
  let _ = Sched.after t ~ticks:2 (fun () -> fired := true) in
  Sched.tick t;
  Alcotest.(check bool) "not at the wrap tick (clock 256)" false !fired;
  Sched.tick t;
  Alcotest.(check bool) "fires just past the wrap (clock 257)" true !fired

(* {1 The idle tick allocates nothing}

   A finished request's timeout leaves the wheel with it, a bucket with
   nothing due is scanned in place, the sources are walked without a
   closure and the counters are handles: a tick with nothing to do
   allocates nothing, however many requests the machine has served. *)

let serve_queued_reads (m : Machine.t) n =
  let sched = Machine.sched m in
  Hwsim.Piix4.set_latency m.busmaster 4;
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  for i = 1 to n do
    Ide.Async.await d (Ide.Async.read_dma d ~lba:(i mod 64) ~count:1 ())
  done;
  Alcotest.(check int) "every read completed" 0 (Sched.outstanding sched);
  sched

(* Minor words of two wheel revolutions of idle ticks, net of what
   reading the counter costs. *)
let idle_ticks_words sched =
  let revolutions () =
    for _ = 1 to 512 do
      Sched.tick sched
    done
  in
  revolutions ();
  let b0 = Gc.minor_words () in
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  revolutions ();
  let w1 = Gc.minor_words () in
  (w1 -. w0) -. (b1 -. b0)

let test_idle_tick_allocation_free () =
  let plain = serve_queued_reads (Machine.create ()) 200 in
  Alcotest.(check (float 0.)) "plain machine: 0 words per idle tick" 0.
    (idle_ticks_words plain);
  let m =
    Machine.create
      ~trace:(Trace.create ~capacity:4096 ())
      ~metrics:(Metrics.create ()) ~lifecycle:true ()
  in
  let instrumented = serve_queued_reads m 200 in
  Alcotest.(check (float 0.)) "instrumented machine: 0 words per idle tick" 0.
    (idle_ticks_words instrumented)

(* {1 Dispatch: toy interrupt delivery and the storm bound} *)

let test_dispatch_delivers_and_completes () =
  let metrics = Metrics.create () in
  let tref = ref None in
  let note high = match !tref with Some t -> Sched.note_int t high | None -> () in
  let pending = ref None in
  let ctl =
    {
      Sched.ctl_raise =
        (fun ~line ->
          pending := Some line;
          note true);
      ctl_ack =
        (fun () ->
          match !pending with
          | None ->
              note false;
              None
          | Some line ->
              pending := None;
              note false;
              Some line);
      ctl_eoi = (fun ~line:_ -> ());
    }
  in
  let t = Sched.create ~ctx:(Ctx.create ~metrics ()) ctl in
  tref := Some t;
  let dev_high = ref false in
  Sched.add_source t ~line:2 ~dev:"d" (fun () -> !dev_high);
  Sched.set_handler t ~line:2 ~dev:"d" (fun () ->
      dev_high := false;
      Sched.complete t ~dev:"d" (Ok ()));
  let rq =
    Sched.submit t ~dev:"d" ~label:"op" ~start:(fun () -> dev_high := true) ()
  in
  Sched.await t rq;
  Alcotest.(check int) "one raise" 1 (Metrics.count metrics "sched.irqs.raised");
  Alcotest.(check int) "one delivery" 1 (Metrics.count metrics "sched.irqs.delivered");
  Alcotest.(check int) "no storm" 0 (Metrics.count metrics "sched.irqs.storms")

let test_storm_bounded () =
  let metrics = Metrics.create () in
  (* A controller stuck asserting line 1: dispatch must bound its
     deliveries instead of spinning forever. *)
  let t =
    Sched.create ~ctx:(Ctx.create ~metrics ())
      {
        Sched.ctl_raise = (fun ~line:_ -> ());
        ctl_ack = (fun () -> Some 1);
        ctl_eoi = (fun ~line:_ -> ());
      }
  in
  Sched.set_handler t ~line:1 ~dev:"noisy" (fun () -> ());
  Sched.note_int t true;
  let delivered = Sched.dispatch t in
  Alcotest.(check int) "bounded per dispatch" 16 delivered;
  Alcotest.(check int) "storm counted" 1 (Metrics.count metrics "sched.irqs.storms")

(* {1 The 8259A EOI re-dispatch regression}

   With lines 3 and 5 raised, INTA takes 3 into service and INT drops
   (5 is nested below). The specific EOI for 3 uncovers 5, so the INT
   callback must fire on the register write itself — the loop would
   otherwise only notice on the next raise. *)

let test_pic_eoi_uncovers_queued_line () =
  let p = Hwsim.Pic8259.create () in
  let m = Hwsim.Pic8259.model p in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 0 0x11;
  wr 1 0x20;
  wr 1 0x04;
  wr 1 0x01;
  wr 1 0x00;
  let edges = ref [] in
  Hwsim.Pic8259.set_int_callback p (fun level -> edges := level :: !edges);
  Hwsim.Pic8259.raise_irq p ~line:3;
  Hwsim.Pic8259.raise_irq p ~line:5;
  Alcotest.(check (option int)) "highest first" (Some 0x23) (Hwsim.Pic8259.inta p);
  Alcotest.(check bool) "line 5 nested below the in-service 3" false
    (Hwsim.Pic8259.int_asserted p);
  edges := [];
  wr 0 (0x60 lor 3) (* specific EOI for line 3 *);
  Alcotest.(check (list bool)) "EOI write re-asserts INT for the queued line"
    [ true ] (List.rev !edges);
  Alcotest.(check (option int)) "and line 5 delivers" (Some 0x25)
    (Hwsim.Pic8259.inta p)

(* The same property end to end: disk and NIC interrupt simultaneously;
   one Sched.tick must deliver both — the EOI for the network line
   (higher priority) re-raises INT for the still-pending IDE line. *)

let test_machine_two_lines_one_tick () =
  let metrics = Metrics.create () in
  let m = Machine.create ~metrics () in
  let sched = Machine.sched m in
  let expected = Bytes.init 512 (fun i -> Char.chr ((i * 13 + 1) land 0xff)) in
  Hwsim.Ide_disk.write_sector m.disk ~lba:42 expected;
  Hwsim.Piix4.set_latency m.busmaster 1;
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let sync_net = Net.Devil_driver.create m.ne2000_dev in
  Net.Devil_driver.init sync_net ~mac:"\x02\x00\x00\x00\x00\x07";
  let a = Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let frames = ref [] in
  Net.Async.on_frame a (fun f -> frames := f :: !frames);
  let got = ref Bytes.empty in
  let rq = Ide.Async.read_dma d ~lba:42 ~count:1 ~on_data:(fun b -> got := b) () in
  (* Complete the deferred DMA and land a frame before any loop
     iteration runs: both INT sources are now high at once. *)
  Hwsim.Piix4.tick m.busmaster;
  let frame = String.init 48 (fun i -> Char.chr ((i * 5 + 3) land 0xff)) in
  Alcotest.(check bool) "frame accepted" true (Hwsim.Ne2000.inject_frame m.nic frame);
  Sched.tick sched;
  Alcotest.(check int) "both lines delivered in one tick" 2
    (Metrics.count metrics "sched.irqs.delivered");
  Alcotest.(check (list string)) "frame drained" [ frame ] (List.rev !frames);
  (match Sched.peek rq with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "queued DMA read did not complete");
  Alcotest.(check bytes) "sector intact" expected !got;
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding sched)

(* {1 Receive-ring reassembly: the shared wrap helper} *)

let test_ring_copy_straddle () =
  (* A fake 32 KiB ring backing store addressed absolutely, like the
     remote-DMA read the drivers pass in. Ring geometry is the
     drivers': pages 0x46..0x80, so the ring ends at byte 0x8000. *)
  let ram = Bytes.init 0x8000 (fun i -> Char.chr (i land 0xff)) in
  let reads = ref [] in
  let read ~addr ~len =
    reads := (addr, len) :: !reads;
    Bytes.sub ram addr len
  in
  (* Header at page 0x7f: body starts at 0x7f04, 252 bytes fit before
     the ring end, the remaining 48 continue at 0x4600. *)
  let body = Net.ring_copy ~read ~bnry:0x7f ~body_len:300 in
  Alcotest.(check int) "length" 300 (Bytes.length body);
  Alcotest.(check (list (pair int int))) "split exactly at the ring end"
    [ (0x7f04, 252); (0x4600, 48) ]
    (List.rev !reads);
  for i = 0 to 251 do
    Alcotest.(check char) (Printf.sprintf "head byte %d" i)
      (Bytes.get ram (0x7f04 + i)) (Bytes.get body i)
  done;
  for i = 252 to 299 do
    Alcotest.(check char) (Printf.sprintf "wrapped byte %d" i)
      (Bytes.get ram (0x4600 + (i - 252)))
      (Bytes.get body i)
  done;
  (* The non-straddling case is a single read. *)
  reads := [];
  let body = Net.ring_copy ~read ~bnry:0x50 ~body_len:100 in
  Alcotest.(check int) "plain length" 100 (Bytes.length body);
  Alcotest.(check (list (pair int int))) "single read" [ (0x5004, 100) ]
    (List.rev !reads)

(* End to end: walk CURR to the last ring page with 57 one-page frames,
   then inject one whose body crosses the ring end. Both drivers must
   hand back every frame byte-identically. *)

let straddle_frames =
  List.init 57 (fun i -> String.init 252 (fun j -> Char.chr ((i + j) land 0xff)))
  @ [ String.init 300 (fun j -> Char.chr (((j * 7) + 1) land 0xff)) ]

let drive_straddle ~nic ~receive ~inject =
  let last = List.length straddle_frames - 1 in
  List.mapi
    (fun i f ->
      if not (inject f) then Alcotest.fail "ring rejected an injected frame";
      if i = last then
        (* Proof the final frame actually wrapped: its byte 252 landed
           at the ring start (page 0x46). *)
        Alcotest.(check int) "last frame straddles the ring end"
          (Char.code f.[252])
          (Hwsim.Ne2000.ram_byte nic (0x46 * 256));
      match receive () with
      | Some g -> g
      | None -> Alcotest.fail "injected frame not received")
    straddle_frames

let test_ring_straddle_byte_identical () =
  let m1 = Machine.create () in
  let d = Net.Devil_driver.create m1.ne2000_dev in
  Net.Devil_driver.init d ~mac:"\x02\x00\x00\x00\x00\x01";
  let via_devil =
    drive_straddle ~nic:m1.nic
      ~receive:(fun () -> Net.Devil_driver.receive d)
      ~inject:(Hwsim.Ne2000.inject_frame m1.nic)
  in
  let m2 = Machine.create () in
  let h = Net.Handcrafted.create m2.bus ~base:Machine.ne2000_base in
  Net.Handcrafted.init h ~mac:"\x02\x00\x00\x00\x00\x01";
  let via_hand =
    drive_straddle ~nic:m2.nic
      ~receive:(fun () -> Net.Handcrafted.receive h)
      ~inject:(Hwsim.Ne2000.inject_frame m2.nic)
  in
  Alcotest.(check (list string)) "devil driver returns the injected frames"
    straddle_frames via_devil;
  Alcotest.(check (list string)) "handcrafted reassembles byte-identically"
    via_devil via_hand

(* {1 Sync/async failure-taxonomy equivalence}

   The queued driver must fail exactly the way the polling driver
   does: same constructor for the same adversity. Each scenario runs
   the same two-sector DMA read against a fresh machine per mode. *)

type scenario = Clean | Transient_burst of int | Dropped_go | Lost_completion

let scenario_print = function
  | Clean -> "clean"
  | Transient_burst b -> Printf.sprintf "transient-burst(budget=%d)" b
  | Dropped_go -> "dropped-go"
  | Lost_completion -> "lost-completion"

let scenario_gen =
  QCheck.Gen.(
    oneof
      [
        return Clean;
        map (fun b -> Transient_burst b) (int_range 0 5);
        return Dropped_go;
        return Lost_completion;
      ])

let plans_of = function
  | Clean | Lost_completion | Transient_burst 0 -> None
  | Transient_burst b ->
      Some
        [
          Fault.plan ~label:"t" ~budget:b ~first:Machine.ide_base
            ~last:(Machine.ide_base + 7)
            (Fault.Transient { probability = 1.0 });
        ]
  | Dropped_go ->
      (* Every write to the busmaster command register is dropped: the
         engine never starts, in both drivers. *)
      Some
        [
          Fault.plan ~label:"drop-go" ~ops:[ Fault.Write ] ~budget:1000
            ~first:Machine.piix4_base ~last:Machine.piix4_base
            (Fault.Drop_write { probability = 1.0 });
        ]

let latency_of = function Lost_completion -> 1_000_000 | _ -> 4

let scenario_machine scen =
  let wrap_bus =
    Option.map (fun plans b -> Fault.bus (Fault.wrap ~plans b)) (plans_of scen)
  in
  (* A short deadline, so the timeout scenarios stay fast. *)
  let m = Machine.create ?wrap_bus ~poll_deadline:200 () in
  let expected =
    Bytes.init (2 * 512) (fun i -> Char.chr (((i * 31) + 7) land 0xff))
  in
  for s = 0 to 1 do
    Hwsim.Ide_disk.write_sector m.disk ~lba:(500 + s)
      (Bytes.sub expected (s * 512) 512)
  done;
  Hwsim.Piix4.set_latency m.busmaster (latency_of scen);
  (m, expected)

let tag_of f =
  match f () with
  | () -> "ok"
  | exception Policy.Driver_error e -> (
      match e with
      | Policy.Timeout _ -> "timeout"
      | Policy.Device_fault _ -> "device_fault"
      | Policy.Bus_fault _ -> "bus_fault"
      | Policy.Degraded _ -> "degraded")

let run_sync scen =
  let m, expected = scenario_machine scen in
  let d = Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  tag_of (fun () ->
      let got =
        Ide.Devil_driver.read_dma d
          ~memory:(Hwsim.Piix4.memory m.busmaster)
          ~lba:500 ~count:2
      in
      if not (Bytes.equal got expected) then
        Policy.fail (Policy.Device_fault "sync: data differs from disk"))

let run_async scen =
  let m, expected = scenario_machine scen in
  let sched = Machine.sched m in
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let got = ref Bytes.empty in
  tag_of (fun () ->
      let rq = Ide.Async.read_dma d ~lba:500 ~count:2 ~on_data:(fun b -> got := b) () in
      Ide.Async.await d rq;
      if not (Bytes.equal !got expected) then
        Policy.fail (Policy.Device_fault "async: data differs from disk"))

let expected_tag = function
  | Clean -> "ok"
  | Transient_burst b -> if b >= Policy.default_attempts then "degraded" else "ok"
  | Dropped_go | Lost_completion -> "timeout"

let taxonomy_equivalence =
  QCheck.Test.make ~name:"sync and queued drivers share a failure taxonomy"
    ~count:(qcount 20)
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun scen ->
      let s = run_sync scen in
      let a = run_async scen in
      let e = expected_tag scen in
      if s <> e || a <> e then
        QCheck.Test.fail_reportf "%s: sync=%s async=%s expected=%s"
          (scenario_print scen) s a e;
      true)

(* {1 Faults on the interrupt-delivery path} *)

(* Scheduled (exhaustive-mode) injection: the first acknowledge read
   aborts. The delivery is lost that pass, counted, and the
   level-triggered source re-raises on the next tick — the request
   still completes Ok with no driver-visible retry. *)
let test_scheduled_ack_fault_redelivers () =
  let metrics = Metrics.create () in
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~label:"ack" ~op:Fault.Read ~at:0 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let tref = ref None in
  let note high = match !tref with Some t -> Sched.note_int t high | None -> () in
  (* The controller keeps its pending line in the faulted bus's byte 0
     (0x80 | line), so acknowledging is a read that the schedule can
     abort. *)
  let ctl =
    {
      Sched.ctl_raise =
        (fun ~line ->
          bus.Bus.write ~width:8 ~addr:0 ~value:(0x80 lor line);
          note true);
      ctl_ack =
        (fun () ->
          let v = bus.Bus.read ~width:8 ~addr:0 in
          if v land 0x80 = 0 then begin
            note false;
            None
          end
          else begin
            bus.Bus.write ~width:8 ~addr:0 ~value:0;
            note false;
            Some (v land 0x7)
          end);
      ctl_eoi = (fun ~line:_ -> ());
    }
  in
  let t = Sched.create ~ctx:(Ctx.create ~metrics ()) ctl in
  tref := Some t;
  let dev_high = ref false in
  Sched.add_source t ~line:2 ~dev:"d" (fun () -> !dev_high);
  Sched.set_handler t ~line:2 ~dev:"d" (fun () ->
      dev_high := false;
      Sched.complete t ~dev:"d" (Ok ()));
  let rq =
    Sched.submit t ~dev:"d" ~label:"op" ~timeout:50
      ~start:(fun () -> dev_high := true)
      ()
  in
  Sched.await t rq;
  Alcotest.(check int) "the scheduled fault fired" 1 (Fault.scheduled_hits inj);
  Alcotest.(check int) "delivery loss counted" 1
    (Metrics.count metrics "sched.irqs.faults");
  Alcotest.(check int) "redelivered" 1 (Metrics.count metrics "sched.irqs.delivered");
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding t)

(* The same loss through the real machine: a seeded transient on the
   8259A acknowledge read. The queued read must still return the right
   bytes, with the loss visible only in the counters. *)
let test_machine_inta_fault_recovers () =
  let metrics = Metrics.create () in
  let plans =
    [
      Fault.plan ~label:"inta" ~ops:[ Fault.Read ] ~budget:1
        ~first:Machine.pic_base ~last:Machine.pic_base
        (Fault.Transient { probability = 1.0 });
    ]
  in
  let wrap_bus b = Fault.bus (Fault.wrap ~metrics ~plans b) in
  let m = Machine.create ~metrics ~wrap_bus () in
  let sched = Machine.sched m in
  Alcotest.(check int) "building the loop costs no acknowledge reads" 0
    (Metrics.count metrics "fault.injections");
  let expected = Bytes.init 512 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Hwsim.Ide_disk.write_sector m.disk ~lba:9 expected;
  Hwsim.Piix4.set_latency m.busmaster 2;
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let got = ref Bytes.empty in
  let rq = Ide.Async.read_dma d ~lba:9 ~count:1 ~on_data:(fun b -> got := b) () in
  Ide.Async.await d rq;
  Alcotest.(check bytes) "recovered read is intact" expected !got;
  Alcotest.(check int) "the INTA read faulted once" 1
    (Metrics.count metrics "fault.injections");
  Alcotest.(check int) "loss counted" 1 (Metrics.count metrics "sched.irqs.faults");
  Alcotest.(check int) "then redelivered" 1
    (Metrics.count metrics "sched.irqs.delivered")

(* A persistently lost interrupt — the line masked at the controller —
   is the classified timeout, and the late delivery after unmasking is
   accounted as unhandled rather than resurrecting the dead request. *)
let test_masked_line_times_out () =
  let metrics = Metrics.create () in
  let m = Machine.create ~metrics ~poll_deadline:40 () in
  let sched = Machine.sched m in
  (* OCW1: mask the IDE line after the loop unmasked everything. *)
  m.bus.Bus.write ~width:8 ~addr:(Machine.pic_base + 1)
    ~value:(1 lsl Machine.irq_ide);
  Hwsim.Ide_disk.write_sector m.disk ~lba:5
    (Bytes.make 512 'x');
  Hwsim.Piix4.set_latency m.busmaster 2;
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let rq = Ide.Async.read_dma d ~lba:5 ~count:1 () in
  (match Ide.Async.await d rq with
  | () -> Alcotest.fail "masked line must time the request out"
  | exception Policy.Driver_error (Policy.Timeout _) -> ());
  Alcotest.(check int) "classified timeout counted" 1
    (Metrics.count metrics "sched.timeouts");
  (* Unmask: the still-asserted level delivers late, into no request. *)
  m.bus.Bus.write ~width:8 ~addr:(Machine.pic_base + 1) ~value:0x00;
  Sched.tick sched;
  Alcotest.(check int) "late delivery is unhandled" 1
    (Metrics.count metrics "sched.irqs.unhandled");
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding sched)

(* {1 The protocol monitor stays green over the queued drivers} *)

let test_async_drivers_pass_monitor () =
  let trace = Trace.create ~capacity:8192 () in
  let m = Machine.create ~trace () in
  let mon =
    Monitor.create
      ~devices:
        [
          ("ide", Specs.ide ());
          ("piix4", Specs.piix4_ide ());
          ("ne2000", Specs.ne2000 ());
        ]
  in
  Monitor.attach mon trace;
  let sched = Machine.sched m in
  let expected = Bytes.init (2 * 512) (fun i -> Char.chr ((i * 11) land 0xff)) in
  for s = 0 to 1 do
    Hwsim.Ide_disk.write_sector m.disk ~lba:(70 + s)
      (Bytes.sub expected (s * 512) 512)
  done;
  Hwsim.Piix4.set_latency m.busmaster 3;
  let d =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  let got = ref Bytes.empty in
  let rq = Ide.Async.read_dma d ~lba:70 ~count:2 ~on_data:(fun b -> got := b) () in
  let sync_net = Net.Devil_driver.create m.ne2000_dev in
  Net.Devil_driver.init sync_net ~mac:"\x02\x00\x00\x00\x00\x09";
  let a = Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let frames = ref [] in
  Net.Async.on_frame a (fun f -> frames := f :: !frames);
  let frame = String.init 60 (fun i -> Char.chr ((i * 9) land 0xff)) in
  Alcotest.(check bool) "frame accepted" true (Hwsim.Ne2000.inject_frame m.nic frame);
  let tx = Net.Async.send a "monitor oracle tx frame" in
  Ide.Async.await d rq;
  Net.Async.await a tx;
  Sched.drain sched;
  Alcotest.(check bytes) "sectors intact" expected !got;
  Alcotest.(check (list string)) "frame drained" [ frame ] (List.rev !frames);
  (match Monitor.violations mon with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "monitor flagged the queued drivers: %s/%s: %s"
        v.Monitor.vl_dev v.Monitor.vl_rule v.Monitor.vl_detail);
  Alcotest.(check int) "no queue leak" 0 (Sched.outstanding sched)

let () =
  Alcotest.run "sched"
    [
      ( "queues",
        [
          case "FIFO order, completion/start overlap" test_fifo_overlap;
          case "timeout is the classified poll failure" test_timeout_classified;
          case "issue-time failure classifies immediately"
            test_start_failure_is_classified;
        ] );
      ( "timers",
        [
          case "deadline then creation order; cancel" test_timer_order_and_cancel;
          case "wheel wrap-around" test_timer_beyond_one_revolution;
          case "deadline exactly one wheel size away" test_timer_exact_wheel_size;
          case "shared bucket, one revolution apart"
            test_timer_shared_bucket_one_revolution_apart;
          case "armed across the 256-boundary" test_timer_across_wrap_boundary;
          case "an idle tick allocates nothing after 200 reads"
            test_idle_tick_allocation_free;
        ] );
      ( "dispatch",
        [
          case "toy delivery completes a request" test_dispatch_delivers_and_completes;
          case "interrupt storm is bounded" test_storm_bounded;
        ] );
      ( "pic-eoi",
        [
          case "EOI write re-asserts INT for a queued line"
            test_pic_eoi_uncovers_queued_line;
          case "two simultaneous lines deliver in one tick"
            test_machine_two_lines_one_tick;
        ] );
      ( "rx-ring",
        [
          case "ring_copy splits exactly at the ring end" test_ring_copy_straddle;
          case "straddling frame reassembles byte-identically in both drivers"
            test_ring_straddle_byte_identical;
        ] );
      ( "taxonomy",
        [ QCheck_alcotest.to_alcotest taxonomy_equivalence ] );
      ( "irq-faults",
        [
          case "scheduled acknowledge fault redelivers"
            test_scheduled_ack_fault_redelivers;
          case "seeded INTA fault recovers through the machine"
            test_machine_inta_fault_recovers;
          case "masked line is the classified timeout" test_masked_line_times_out;
        ] );
      ( "monitor",
        [ case "queued drivers stay violation-free" test_async_drivers_pass_monitor ] );
    ]
