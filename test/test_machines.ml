(* Machines are independent values: what one machine's drivers do
   reaches that machine's trace, metrics, decider and request ids and
   no other's — whether the machines run one after the other,
   interleaved op by op, or on two domains at once. *)

module Trace = Devil_runtime.Trace
module Trace_export = Devil_runtime.Trace_export
module Metrics = Devil_runtime.Metrics
module Telemetry = Devil_runtime.Telemetry
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Machine = Drivers.Machine
module Ide = Drivers.Ide
module Net = Drivers.Net
module Serial = Drivers.Serial
module Gfx = Drivers.Gfx

let case name f = Alcotest.test_case name `Quick f

let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let polls trace =
  List.length
    (List.filter
       (fun (e : Trace.event) ->
         match e.kind with Trace.Poll _ -> true | _ -> false)
       (Trace.events trace))

let read_sector (m : Machine.t) lba =
  let d = Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  Ide.Devil_driver.read_sectors d ~lba ~count:1 ~mult:1 ~path:`Block
    ~width:`W16

(* {1 The probe}

   Machine A is instrumented, machine B is plain. A sector read on B
   polls BSY and DRQ; none of it may land in A's trace or counters. *)

let test_plain_machine_reaches_no_other () =
  let trace = Trace.create () and metrics = Metrics.create () in
  let a = Machine.create ~trace ~metrics () in
  let b = Machine.create () in
  let recorded = Trace.recorded trace in
  ignore (read_sector b 0);
  Alcotest.(check int) "no Poll event in A's trace" 0 (polls trace);
  Alcotest.(check int) "A's trace untouched" recorded (Trace.recorded trace);
  Alcotest.(check int) "A's poll.runs untouched" 0
    (Metrics.count metrics "poll.runs");
  (* A's own read is still observed. *)
  ignore (read_sector a 0);
  Alcotest.(check bool) "A's own polls are traced" true (polls trace > 0);
  Alcotest.(check bool) "and counted" true
    (Metrics.count metrics "poll.runs" > 0)

(* A schedule whose workload escapes with an exception no handler
   classifies leaves nothing behind: the next machine's second poll is
   not forced by the schedule's decider, and its events reach no trace
   but its own. *)
let test_escaped_schedule_leaves_nothing () =
  let module Excamp = Explorecamp.Excamp in
  let w =
    {
      (Excamp.builtin "ide-read") with
      w_name = "escapes";
      w_run = (fun _ -> invalid_arg "escapes");
    }
  in
  let sched =
    [ { Devil_runtime.Explore.slot = 1; choice = Excamp.Poll_timeout } ]
  in
  (match Excamp.run_schedule w [ Excamp.Poll_timeout ] sched with
  | _ -> Alcotest.fail "the workload's exception was swallowed"
  | exception Invalid_argument _ -> ());
  let data = read_sector (Machine.create ()) 0 in
  Alcotest.(check int) "the next machine reads its sector"
    Hwsim.Ide_disk.sector_bytes (Bytes.length data)

(* {1 Interleaving changes nothing}

   Each machine gets its own seeded transient-fault plan on the IDE
   ports, so its drivers retry as well as poll, and a lifecycle clock
   that counts events, so every histogram is deterministic. *)

type op =
  | Ide_read of int
  | Ide_dma of int
  | Serial_test
  | Gfx_fill of int
  | Net_send of int

let pp_op = function
  | Ide_read l -> Printf.sprintf "ide_read %d" l
  | Ide_dma l -> Printf.sprintf "ide_dma %d" l
  | Serial_test -> "serial"
  | Gfx_fill c -> Printf.sprintf "gfx %d" c
  | Net_send n -> Printf.sprintf "net %d" n

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Ide_read l) (int_bound 7);
        map (fun l -> Ide_dma l) (int_bound 7);
        return Serial_test;
        map (fun c -> Gfx_fill c) (int_bound 255);
        map (fun n -> Net_send n) (int_range 16 64);
      ])

type rig = {
  m : Machine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  ide : Ide.Devil_driver.t;
  dma : Ide.Async.t;
  gfx : Gfx.Devil_driver.t;
  net : Net.Devil_driver.t;
  outcomes : Buffer.t;
}

let rig ~seed =
  let trace = Trace.create ~capacity:65536 () and metrics = Metrics.create () in
  let events = ref 0 in
  let lifecycle_clock () =
    incr events;
    !events
  in
  let plans =
    [
      Fault.plan ~label:"ide" ~first:Machine.ide_base
        ~last:(Machine.ide_base + 7)
        (Fault.Transient { probability = 0.05 });
    ]
  in
  let wrap_bus b = Fault.bus (Fault.wrap ~seed ~sink:trace ~metrics ~plans b) in
  let m =
    Machine.create ~trace ~metrics ~wrap_bus ~lifecycle:true ~lifecycle_clock ()
  in
  for lba = 0 to 7 do
    Hwsim.Ide_disk.write_sector m.disk ~lba
      (Bytes.make Hwsim.Ide_disk.sector_bytes (Char.chr (lba + (16 * seed))))
  done;
  Hwsim.Piix4.set_latency m.busmaster 4;
  let dma =
    Ide.Async.create ~sched:(Machine.sched m) ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  {
    m;
    trace;
    metrics;
    ide = Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev;
    dma;
    gfx = Gfx.Devil_driver.create m.gfx_dev;
    net = Net.Devil_driver.create m.ne2000_dev;
    outcomes = Buffer.create 64;
  }

let run_op r op =
  let outcome =
    match op with
    | Ide_read lba ->
        Bytes.to_string
          (Ide.Devil_driver.read_sectors r.ide ~lba ~count:1 ~mult:1
             ~path:`Block ~width:`W16)
        |> Digest.string |> Digest.to_hex
    | Ide_dma lba ->
        let got = ref "" in
        Ide.Async.await r.dma
          (Ide.Async.read_dma r.dma ~lba ~count:1
             ~on_data:(fun b -> got := Digest.to_hex (Digest.bytes b))
             ());
        !got
    | Serial_test ->
        let u = Serial.Devil_driver.create r.m.uart_dev in
        Serial.Devil_driver.init u ~baud:115200;
        string_of_bool (Serial.Devil_driver.self_test u)
    | Gfx_fill color ->
        Gfx.Devil_driver.fill_rect r.gfx { Gfx.x = 1; y = 2; w = 3; h = 4 }
          ~color;
        Gfx.Devil_driver.sync r.gfx;
        "filled"
    | Net_send n ->
        Net.Devil_driver.init r.net ~mac:"\x02\x00\x00\x00\x00\x07";
        Net.Devil_driver.send r.net (String.make n 'n');
        "sent"
  in
  Buffer.add_string r.outcomes (pp_op op ^ " -> " ^ outcome ^ "\n")

let run_op r op =
  try run_op r op
  with Policy.Driver_error e ->
    Buffer.add_string r.outcomes
      (pp_op op ^ " failed: " ^ Policy.error_to_string e ^ "\n")

(* Everything a machine reported. *)
let digest r =
  ( Trace_export.to_jsonl r.trace,
    Metrics.to_json r.metrics,
    Buffer.contents r.outcomes )

let alone ~seed ops =
  let r = rig ~seed in
  List.iter (run_op r) ops;
  digest r

(* [turns] picks, step by step, which machine moves next; whatever is
   left when it runs out goes A's ops first. *)
let interleaved (ops_a, ops_b, turns) =
  let a = rig ~seed:1 and b = rig ~seed:2 in
  let rec go ops_a ops_b turns =
    let a_moves, turns =
      match turns with t :: rest -> (t, rest) | [] -> (true, [])
    in
    match (ops_a, ops_b) with
    | [], [] -> ()
    | x :: ra, _ when a_moves || ops_b = [] ->
        run_op a x;
        go ra ops_b turns
    | _, y :: rb ->
        run_op b y;
        go ops_a rb turns
    | _ :: _, [] -> assert false
  in
  go ops_a ops_b turns;
  (digest a, digest b)

let prop_interleaving_changes_nothing =
  let ops = QCheck.Gen.(list_size (int_range 1 5) op_gen) in
  let print (a, b, turns) =
    Printf.sprintf "A: [%s]; B: [%s]; turns %s"
      (String.concat "; " (List.map pp_op a))
      (String.concat "; " (List.map pp_op b))
      (String.concat "" (List.map (fun t -> if t then "a" else "b") turns))
  in
  QCheck.Test.make ~count:(qcount 15)
    ~name:"two machines interleaved report as each one alone"
    (QCheck.make ~print
       QCheck.Gen.(triple ops ops (list_size (int_bound 10) bool)))
    (fun ((ops_a, ops_b, _) as input) ->
      let a, b = interleaved input in
      a = alone ~seed:1 ops_a && b = alone ~seed:2 ops_b)

(* {1 Two domains}

   The soak mix (queued IDE DMA reads, NE2000 sends, UART reads, a
   telemetry tick) on two machines at once, one per domain, must write
   the same per-machine JSONL as the same two runs one after the
   other. The specs are compiled before the domains start: their
   memo cells are the one process-wide cache the machines share. *)

let soak ~salt ~ticks =
  let trace = Trace.create ~capacity:65536 () and metrics = Metrics.create () in
  let telemetry = Telemetry.create ~capacity:64 metrics in
  let events = ref 0 in
  let lifecycle_clock () =
    incr events;
    !events
  in
  let m =
    Machine.create ~trace ~metrics ~telemetry ~lifecycle:true ~lifecycle_clock
      ()
  in
  for lba = 0 to 15 do
    Hwsim.Ide_disk.write_sector m.disk ~lba
      (Bytes.init Hwsim.Ide_disk.sector_bytes (fun j ->
           Char.chr ((lba + j + salt) land 0xff)))
  done;
  Hwsim.Piix4.set_latency m.busmaster 16;
  let sched = Machine.sched m in
  let ide =
    Ide.Async.create ~sched ~line:Machine.irq_ide
      ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev ~piix4:m.piix4_dev
  in
  Net.Devil_driver.init
    (Net.Devil_driver.create m.ne2000_dev)
    ~mac:"\x02\x00\x00\x00\x00\x42";
  let net = Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  for t = 0 to ticks - 1 do
    List.iter (Ide.Async.await ide)
      (List.init 4 (fun k ->
           Ide.Async.read_dma ide ~lba:(((t * 4) + k) mod 8 * 2) ~count:2 ()));
    List.iter (Net.Async.await net)
      (List.init 4 (fun k ->
           Net.Async.send net (String.make (48 + k) (Char.chr (65 + salt)))));
    ignore (Hwsim.Ne2000.take_transmitted m.nic);
    for _ = 1 to 8 do
      ignore (Machine.Instance.get m.uart_dev "parity_mode")
    done;
    Machine.Instance.get_struct m.uart_dev "line_status";
    Machine.telemetry_tick ~thresholds:[ ("trace_drops", max_int) ] m
  done;
  (Trace_export.to_jsonl trace, Metrics.to_json metrics)

let warm_specs () =
  let open Devil_specs.Specs in
  List.iter
    (fun f -> ignore (f ()))
    [
      busmouse; ne2000; ide; piix4_ide; dma8237; cs4236b; permedia2; uart16550;
      mc146818; i8042; (fun () -> pic8259 ~master:true ());
    ]

let test_two_domains_match_sequential () =
  warm_specs ();
  let seq_a = soak ~salt:1 ~ticks:12 in
  let seq_b = soak ~salt:2 ~ticks:10 in
  let da = Domain.spawn (fun () -> soak ~salt:1 ~ticks:12) in
  let db = Domain.spawn (fun () -> soak ~salt:2 ~ticks:10) in
  let par_a = Domain.join da and par_b = Domain.join db in
  Alcotest.(check bool) "the two machines differ" true (fst seq_a <> fst seq_b);
  Alcotest.(check string) "machine A's JSONL" (fst seq_a) (fst par_a);
  Alcotest.(check string) "machine B's JSONL" (fst seq_b) (fst par_b);
  Alcotest.(check string) "machine A's metrics" (snd seq_a) (snd par_a);
  Alcotest.(check string) "machine B's metrics" (snd seq_b) (snd par_b)

let () =
  Alcotest.run "machines"
    [
      ( "independence",
        [
          case "a plain machine reaches no other"
            test_plain_machine_reaches_no_other;
          case "an escaped schedule leaves nothing behind"
            test_escaped_schedule_leaves_nothing;
          QCheck_alcotest.to_alcotest prop_interleaving_changes_nothing;
          case "two domains write what a sequential run writes"
            test_two_domains_match_sequential;
        ] );
    ]
