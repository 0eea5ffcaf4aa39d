(* Record/replay round-trip suite (DESIGN.md §10).

   The heart is a QCheck property over every bundled specification:
   random driver-op sequences run against a recording bus
   (Bus.recording over a seeded memory bus), then replayed from the
   tape with no memory bus behind it at all. The replay must
   reproduce per-op outcomes, a byte-identical trace JSONL, and the
   same final idempotent-cache contents — the strongest form of "the
   tape is the whole interaction".

   Around it: the faultcamp record_replay checks (a detected failure
   must replay from its tape to the identical driver-visible outcome —
   the PR's acceptance scenario), a seeded serialization-violation
   regression for the protocol monitor, the trace/tape JSONL
   round-trips with version rejection.

   DEVIL_QCHECK_COUNT scales the property iteration count. *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Trace_export = Devil_runtime.Trace_export
module Monitor = Devil_runtime.Monitor
module Specs = Devil_specs.Specs
module Campaign = Faultcamp.Campaign

let qcount d =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> d)
  | None -> d

(* {1 Random driver ops}

   A reduced version of the differential suite's vocabulary — enough
   to drive every access shape through the bus (single, block,
   structure rebuilds, cache invalidation) without duplicating its
   whole generator. *)

type op =
  | Get of string
  | Set of string * Value.t
  | Get_struct of string
  | Read_block of string * int
  | Write_block of string * int array
  | Invalidate

let pp_op = function
  | Get n -> "get " ^ n
  | Set (n, v) -> Printf.sprintf "set %s := %s" n (Value.to_string v)
  | Get_struct n -> "get_struct " ^ n
  | Read_block (n, c) -> Printf.sprintf "read_block %s count:%d" n c
  | Write_block (n, d) ->
      Printf.sprintf "write_block %s [%s]" n
        (String.concat ";" (Array.to_list (Array.map string_of_int d)))
  | Invalidate -> "invalidate_cache"

let gen_value (ty : Dtype.t) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  match ty with
  | Dtype.Bool -> map (fun b -> Value.Bool b) bool
  | Dtype.Int { signed; bits } ->
      let hi = (1 lsl min bits 16) - 1 in
      if signed then map (fun n -> Value.Int n) (int_range (-(hi / 2)) (hi / 2))
      else map (fun n -> Value.Int n) (int_range 0 hi)
  | Dtype.Int_set { values; _ } ->
      if values = [] then return (Value.Int 0)
      else map (fun v -> Value.Int v) (oneofl values)
  | Dtype.Enum cases ->
      if cases = [] then return (Value.Enum "EMPTY")
      else
        map
          (fun (c : Dtype.enum_case) -> Value.Enum c.case_name)
          (oneofl cases)

let gen_op (device : Ir.device) : op QCheck.Gen.t =
  let open QCheck.Gen in
  let pub_vars = Ir.public_vars device in
  let block_vars =
    List.filter (fun (v : Ir.var) -> v.v_behaviour.b_block) device.d_vars
  in
  let var_ops =
    List.concat_map
      (fun (v : Ir.var) ->
        [
          (3, map (fun () -> Get v.v_name) unit);
          (3, map (fun value -> Set (v.v_name, value)) (gen_value v.v_type));
        ])
      pub_vars
  in
  let struct_ops =
    List.map
      (fun (s : Ir.strct) -> (2, map (fun () -> Get_struct s.s_name) unit))
      (Ir.public_structs device)
  in
  let block_ops =
    List.concat_map
      (fun (v : Ir.var) ->
        [
          (1, map (fun c -> Read_block (v.v_name, c)) (int_range 0 6));
          ( 1,
            map
              (fun l -> Write_block (v.v_name, Array.of_list l))
              (list_size (int_range 0 6) (int_range 0 0xffff)) );
        ])
      block_vars
  in
  frequency (var_ops @ struct_ops @ block_ops @ [ (1, return Invalidate) ])

type outcome =
  | O_unit
  | O_value of Value.t
  | O_array of int array
  | O_error of string

let pp_outcome = function
  | O_unit -> "()"
  | O_value v -> Value.to_string v
  | O_array a ->
      "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]"
  | O_error m -> "error: " ^ m

let run_op inst op : outcome =
  try
    match op with
    | Get n -> O_value (Instance.get inst n)
    | Set (n, v) ->
        Instance.set inst n v;
        O_unit
    | Get_struct n ->
        Instance.get_struct inst n;
        O_unit
    | Read_block (n, count) -> O_array (Instance.read_block inst n ~count)
    | Write_block (n, data) ->
        Instance.write_block inst n data;
        O_unit
    | Invalidate ->
        Instance.invalidate_cache inst;
        O_unit
  with
  | Instance.Device_error m -> O_error ("device: " ^ m)
  | Bus.Bus_fault m -> O_error ("bus: " ^ m)
  | Not_found -> O_error "Not_found"
  | Invalid_argument m -> O_error ("invalid: " ^ m)

let bases_for (device : Ir.device) =
  let next = ref 16 in
  List.map
    (fun (p : Ir.port) ->
      let maxoff = List.fold_left max 0 p.p_offsets in
      let b = !next in
      next := !next + maxoff + 16;
      (p.p_name, b))
    device.Ir.d_ports

(* The live engine: seeded memory bus, taped by Bus.recording, then
   observed (so the trace sees the post-recording traffic exactly as
   the replay side will). *)
let build_recording ~seed device bases =
  let raw = Bus.memory ~size:4096 () in
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  for addr = 0 to 2047 do
    raw.Bus.write ~width:32 ~addr ~value:(Random.State.int rng 0x10000)
  done;
  let tape, taped = Bus.recording raw in
  let trace = Trace.create ~capacity:200_000 () in
  let ctx = Devil_runtime.Ctx.create ~trace () in
  let inst =
    Instance.create ~label:"replay" ~ctx device
      ~bus:(Bus.observed ~ctx taped)
      ~bases
  in
  (inst, trace, tape)

(* The replay engine: no memory, no seeding — the tape is the whole
   device. *)
let build_replaying ~tape device bases =
  let trace = Trace.create ~capacity:200_000 () in
  let ctx = Devil_runtime.Ctx.create ~trace () in
  let inst =
    Instance.create ~label:"replay" ~ctx device
      ~bus:(Bus.observed ~ctx (Bus.replaying tape))
      ~bases
  in
  (inst, trace)

let replay_property name (device : Ir.device) =
  let bases = bases_for device in
  let gen =
    QCheck.Gen.(
      pair (int_bound 0xffff) (list_size (int_range 1 25) (gen_op device)))
  in
  let print (seed, ops) =
    Printf.sprintf "seed:%d\n%s" seed
      (String.concat "\n" (List.map pp_op ops))
  in
  let shrink (seed, ops) =
    QCheck.Iter.map (fun ops -> (seed, ops)) (QCheck.Shrink.list ops)
  in
  let arb = QCheck.make ~print ~shrink gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "record = replay on %s" name)
    ~count:(qcount 30) arb
    (fun (seed, ops) ->
      let live, live_trace, tape = build_recording ~seed device bases in
      let live_out = List.map (run_op live) ops in
      let replay, replay_trace = build_replaying ~tape device bases in
      List.iteri
        (fun i op ->
          let o =
            try run_op replay op
            with Bus.Replay_divergence m -> O_error ("DIVERGENCE: " ^ m)
          in
          let expected = List.nth live_out i in
          if o <> expected then
            QCheck.Test.fail_reportf "op %d (%s): live %s, replay %s" i
              (pp_op op) (pp_outcome expected) (pp_outcome o))
        ops;
      (* Byte-identical persisted traces: the replay is
         indistinguishable from the recorded run even after export. *)
      let ja = Trace_export.to_jsonl live_trace
      and jb = Trace_export.to_jsonl replay_trace in
      if ja <> jb then
        QCheck.Test.fail_reportf "trace JSONL differs (live %d bytes, replay %d)"
          (String.length ja) (String.length jb);
      (* Same final idempotent-cache contents register by register. *)
      List.iter
        (fun (r : Ir.reg) ->
          let a = Instance.cached_raw live r.r_name
          and b = Instance.cached_raw replay r.r_name in
          if a <> b then
            QCheck.Test.fail_reportf "cached_raw %s: live %s, replay %s"
              r.r_name
              (match a with Some x -> string_of_int x | None -> "-")
              (match b with Some x -> string_of_int x | None -> "-"))
        device.Ir.d_regs;
      true)

let devices =
  [
    ("busmouse", Specs.busmouse ());
    ("ne2000", Specs.ne2000 ());
    ("ide", Specs.ide ());
    ("piix4_ide", Specs.piix4_ide ());
    ("dma8237", Specs.dma8237 ());
    ("pic8259", Specs.pic8259 ~master:true ());
    ("cs4236b", Specs.cs4236b ());
    ("permedia2", Specs.permedia2 ());
    ("uart16550", Specs.uart16550 ());
    ("mc146818", Specs.mc146818 ());
    ("i8042", Specs.i8042 ());
  ]

(* {1 Faultcamp record/replay: the acceptance scenario} *)

let test_campaign_replay () =
  let checks =
    List.concat_map
      (fun driver ->
        List.map
          (fun fault -> Campaign.record_replay ?fault ~driver ~seed:1 ())
          [ None; Some "transient"; Some "stuck-bits" ])
      (* Not [driver_workloads]: bus tapes carry transfers, not
         interrupt wires, so the async workloads cannot replay. *)
      Campaign.replayable_workloads
  in
  List.iter
    (fun (rc : Campaign.replay_check) ->
      Alcotest.(check bool)
        (Format.asprintf "outcome reproduced: %a" Campaign.pp_replay_check rc)
        true rc.rc_outcome_match;
      Alcotest.(check bool)
        (Format.asprintf "trace reproduced: %a" Campaign.pp_replay_check rc)
        true rc.rc_trace_match)
    checks;
  (* At least one of these trials is a detected failure — so the suite
     really does replay a faultcamp-detected failure to its identical
     outcome, not just clean runs. *)
  Alcotest.(check bool)
    "a detected failure was among the replayed trials" true
    (List.exists
       (fun (rc : Campaign.replay_check) ->
         String.length rc.rc_live >= 7 && String.sub rc.rc_live 0 7 = "failed:")
       checks)

(* {1 Monitor: seeded serialization violation}

   The differential suite proves zero violations on clean runs; this
   is the other half — a hand-fed stream that breaks a declared
   serialization order must be flagged. dma8237's address0 is the
   paper's own example: addr0_low must be written before addr0_high. *)

let test_monitor_flags_violation () =
  let mon = Monitor.create ~devices:[ ("dma", Specs.dma8237 ()) ] in
  Monitor.feed_all mon
    [
      {
        Trace.seq = 0;
        kind =
          Trace.Serialized
            { dev = "dma"; owner = "address0"; order = [ "addr0_low"; "addr0_high" ] };
      };
      { seq = 1; kind = Trace.Reg_write { dev = "dma"; reg = "addr0_high"; raw = 0 } };
      { seq = 2; kind = Trace.Reg_write { dev = "dma"; reg = "addr0_low"; raw = 0 } };
    ];
  match Monitor.violations mon with
  | [ v ] ->
      Alcotest.(check string) "rule" "serialization" v.Monitor.vl_rule;
      Alcotest.(check int) "flagged at the out-of-order write" 1 v.Monitor.vl_seq
  | vs ->
      Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_monitor_accepts_order () =
  let mon = Monitor.create ~devices:[ ("dma", Specs.dma8237 ()) ] in
  Monitor.feed_all mon
    [
      {
        Trace.seq = 0;
        kind =
          Trace.Serialized
            { dev = "dma"; owner = "address0"; order = [ "addr0_low"; "addr0_high" ] };
      };
      { seq = 1; kind = Trace.Reg_write { dev = "dma"; reg = "addr0_low"; raw = 0 } };
      { seq = 2; kind = Trace.Reg_write { dev = "dma"; reg = "addr0_high"; raw = 0 } };
    ];
  Alcotest.(check int) "in-order write is clean" 0 (Monitor.violation_count mon)

(* {1 Trace / tape JSONL round-trips} *)

let sample_events =
  let open Trace in
  List.mapi
    (fun i kind -> { seq = i; kind })
    [
      Bus_read { addr = 0x1f7; width = 8; value = 0x58 };
      Bus_write { addr = 0x1f6; width = 8; value = 0xe0 };
      Bus_block_read { addr = 0x1f0; width = 16; count = 256 };
      Bus_block_write { addr = 0x1f0; width = 32; count = 128 };
      Reg_read { dev = "ide"; reg = "status_reg"; raw = 0x58 };
      Reg_write { dev = "ide"; reg = "command_reg"; raw = 0x20 };
      Var_read { dev = "ide"; var = "bsy" };
      Var_write { dev = "ide"; var = "command"; regs = [ "command_reg" ] };
      Struct_write
        {
          dev = "gfx";
          strct = "rect";
          fields = [ "x"; "y" ];
          regs = [ "rect_pos_reg" ];
        };
      Cache_hit { dev = "ide"; reg = "drive_head_reg" };
      Cache_miss { dev = "ide"; reg = "drive_head_reg" };
      Cache_invalidated { dev = "ide" };
      Action { dev = "dma"; owner = "addr0_low"; phase = Pre; assignments = 1 };
      Serialized { dev = "dma"; owner = "address0"; order = [ "a"; "b" ] };
      Poll { label = "ide: BSY clear"; iters = 3; ok = true; rid = 0 };
      Retry
        {
          label = "ide: read_sectors";
          attempt = 2;
          reason = "device fault";
          rid = 0;
        };
      Fault_injected
        { plan = "stuck-bits"; addr = 0x1f7; width = 8; detail = "0x50 -> 0x51" };
    ]

let test_event_jsonl_roundtrip () =
  let text = Trace_export.events_to_jsonl sample_events in
  match Trace_export.events_of_jsonl text with
  | Error why -> Alcotest.failf "parse failed: %s" why
  | Ok evs ->
      Alcotest.(check bool) "all events round-trip" true (evs = sample_events)

let test_jsonl_version_rejected () =
  let text = Trace_export.events_to_jsonl sample_events in
  let bumped =
    match String.index_opt text '\n' with
    | Some i ->
        "{\"devil_trace_version\":99}"
        ^ String.sub text i (String.length text - i)
    | None -> Alcotest.fail "no header line"
  in
  match Trace_export.events_of_jsonl bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a version-99 trace must be rejected, not misread"

let test_tape_jsonl_roundtrip () =
  let raw = Bus.memory ~size:64 () in
  let tape, bus = Bus.recording raw in
  bus.Bus.write ~width:8 ~addr:3 ~value:0xab;
  ignore (bus.Bus.read ~width:8 ~addr:3);
  bus.Bus.write_block ~width:16 ~addr:5 ~from:[| 1; 2; 3 |];
  let into = Array.make 3 0 in
  bus.Bus.read_block ~width:16 ~addr:5 ~into;
  (try ignore (bus.Bus.read ~width:8 ~addr:4096)
   with Bus.Bus_fault _ -> ());
  let text = Trace_export.tape_to_jsonl tape in
  match Trace_export.tape_of_jsonl text with
  | Error why -> Alcotest.failf "tape parse failed: %s" why
  | Ok tape' ->
      Alcotest.(check int) "length" (Bus.tape_length tape) (Bus.tape_length tape');
      Alcotest.(check string)
        "re-serialization is identical" text
        (Trace_export.tape_to_jsonl tape')

let test_chrome_export_smoke () =
  let text = Trace_export.to_chrome sample_events in
  Alcotest.(check bool)
    "has a traceEvents array" true
    (String.length text > 2
    &&
    let re = "traceEvents" in
    let rec find i =
      i + String.length re <= String.length text
      && (String.sub text i (String.length re) = re || find (i + 1))
    in
    find 0)

(* Any finite float renders as a JSON number that parses back to the
   same [Float] — integral ones included, which keep a ".0" so they do
   not come back as [Int]. *)
let prop_float_roundtrip =
  QCheck.Test.make ~count:(qcount 500) ~name:"JSON Float round-trips"
    QCheck.(oneof [ float; map float_of_int int; float_range 0.0 1e6 ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      let j = Trace_export.List [ Trace_export.Float f; Trace_export.Int 3 ] in
      Trace_export.json_of_string (Trace_export.json_to_string j) = Ok j)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "replay"
    [
      ( "roundtrip",
        List.map
          (fun (name, device) ->
            QCheck_alcotest.to_alcotest (replay_property name device))
          devices );
      ("faultcamp", [ case "record_replay across the matrix" test_campaign_replay ]);
      ( "monitor",
        [
          case "flags an out-of-order serialized write"
            test_monitor_flags_violation;
          case "accepts the declared order" test_monitor_accepts_order;
        ] );
      ( "persist",
        [
          case "event JSONL round-trip" test_event_jsonl_roundtrip;
          case "newer version rejected" test_jsonl_version_rejected;
          case "tape JSONL round-trip" test_tape_jsonl_roundtrip;
          case "chrome export smoke" test_chrome_export_smoke;
          QCheck_alcotest.to_alcotest prop_float_roundtrip;
        ] );
    ]
