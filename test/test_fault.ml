(* The fault-injection bus and the recovery policies: per-class fault
   semantics, the injection trace and its counters, retry-based
   recovery, an end-to-end IDE recovery under a transient burst, and a
   smoke run of the fault campaign. *)

module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Bus = Devil_runtime.Bus
module Machine = Drivers.Machine
module Campaign = Faultcamp.Campaign

let case name f = Alcotest.test_case name `Quick f

let rd bus ~addr = bus.Bus.read ~width:8 ~addr
let wr bus ~addr value = bus.Bus.write ~width:8 ~addr ~value

(* {1 Fault-class semantics}

   Each class is exercised with probability 1.0 (or no draw at all) on
   a RAM-backed bus, so the expected mutation is exact. *)

let test_stuck_bits () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"stuck" ~ops:[ Fault.Read ] ~first:0 ~last:3
            (Fault.Stuck_bits { and_mask = lnot 0x02; or_mask = 0x01 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  wr bus ~addr:0 0x06;
  Alcotest.(check int) "bit1 stuck low, bit0 stuck high" 0x05
    (rd bus ~addr:0);
  Alcotest.(check int) "one injection" 1 (Fault.injection_count inj);
  wr bus ~addr:10 0x06;
  Alcotest.(check int) "outside the window: unperturbed" 0x06
    (rd bus ~addr:10);
  (* A value the masks leave unchanged must not count as a fault. *)
  wr bus ~addr:1 0x05;
  Alcotest.(check int) "already-stuck value fires nothing" 0x05
    (rd bus ~addr:1);
  Alcotest.(check int) "counter unchanged" 1 (Fault.injections_for inj "stuck")

let test_flip_bits () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"flip" ~ops:[ Fault.Read ] ~first:0 ~last:0
            (Fault.Flip_bits { mask = 0x81; probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  wr bus ~addr:0 0x10;
  Alcotest.(check int) "mask xored into the read" 0x91 (rd bus ~addr:0);
  Alcotest.(check int) "write side untouched" 1 (Fault.injection_count inj)

let test_drop_write () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"drop" ~ops:[ Fault.Write ] ~budget:1 ~first:1
            ~last:1
            (Fault.Drop_write { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  wr bus ~addr:1 0xaa;
  Alcotest.(check int) "first write never lands" 0 (rd bus ~addr:1);
  wr bus ~addr:1 0xbb;
  Alcotest.(check int) "budget spent: second write lands" 0xbb
    (rd bus ~addr:1);
  Alcotest.(check int) "one injection" 1 (Fault.injection_count inj)

let test_duplicate_write () =
  let metrics = Devil_runtime.Metrics.create () in
  let counted =
    Bus.observed ~ctx:(Devil_runtime.Ctx.create ~metrics ()) (Bus.memory ())
  in
  let count () = Devil_runtime.Metrics.count metrics "bus.writes" in
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"dup" ~ops:[ Fault.Write ] ~budget:1 ~first:2
            ~last:2
            (Fault.Duplicate_write { probability = 1.0 });
        ]
      counted
  in
  let bus = Fault.bus inj in
  wr bus ~addr:2 7;
  Alcotest.(check int) "the device saw the write twice" 2 (count ());
  wr bus ~addr:2 8;
  Alcotest.(check int) "budget spent: single write" 3 (count ())

let test_transient () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"transient" ~budget:2 ~first:0 ~last:3
            (Fault.Transient { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let faulted f = match f () with
    | _ -> false
    | exception Fault.Bus_fault _ -> true
  in
  Alcotest.(check bool) "first access aborts" true
    (faulted (fun () -> rd bus ~addr:0));
  Alcotest.(check bool) "second access aborts" true
    (faulted (fun () -> wr bus ~addr:1 5));
  (* The aborted write must not have reached the device. *)
  Alcotest.(check int) "aborted write never landed" 0 (rd bus ~addr:1);
  wr bus ~addr:1 5;
  Alcotest.(check int) "bus healthy after the burst" 5 (rd bus ~addr:1);
  Alcotest.(check int) "two injections" 2 (Fault.injection_count inj)

(* {1 Trace and counters} *)

let test_trace_events () =
  let sink = Devil_runtime.Trace.create () in
  let inj =
    Fault.wrap ~sink
      ~plans:
        [
          Fault.plan ~label:"flip" ~ops:[ Fault.Read ] ~first:0 ~last:0
            (Fault.Flip_bits { mask = 0x01; probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  for _ = 1 to 3 do
    ignore (rd bus ~addr:0)
  done;
  let events = Devil_runtime.Trace.events sink in
  Alcotest.(check int) "three events" 3 (List.length events);
  let seqs = List.map (fun (e : Devil_runtime.Trace.event) -> e.seq) events in
  Alcotest.(check bool) "sequence numbers increase" true
    (List.sort compare seqs = seqs && List.sort_uniq compare seqs = seqs);
  List.iter
    (fun (e : Devil_runtime.Trace.event) ->
      match e.kind with
      | Devil_runtime.Trace.Fault_injected { plan; addr; detail; _ } ->
          Alcotest.(check string) "label" "flip" plan;
          Alcotest.(check int) "address" 0 addr;
          Alcotest.(check bool) "detail rendered" true
            (String.length detail > 0)
      | _ -> Alcotest.fail "only injections reach the sink")
    events;
  Alcotest.(check bool) "operations counted" true (Fault.operations inj >= 3)

(* {1 Scheduled (exploration) mode}

   The deterministic injection surface Explore enumerates: an
   injection names the exact covered ordinal that must fault, so every
   expectation here is exact. *)

let test_scheduled_exact_ordinal () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~op:Fault.Read ~at:2 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  wr bus ~addr:0 0x42;
  Alcotest.(check int) "ordinal 0 passes" 0x42 (rd bus ~addr:0);
  Alcotest.(check int) "ordinal 1 passes" 0x42 (rd bus ~addr:0);
  let aborted =
    match rd bus ~addr:0 with
    | _ -> false
    | exception Fault.Bus_fault _ -> true
  in
  Alcotest.(check bool) "exactly ordinal 2 aborts" true aborted;
  Alcotest.(check int) "ordinal 3 passes again" 0x42 (rd bus ~addr:0);
  Alcotest.(check int) "one scheduled hit" 1 (Fault.scheduled_hits inj);
  Alcotest.(check int) "no misses" 0 (List.length (Fault.scheduled_misses inj))

let test_scheduled_window_and_direction () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~label:"w" ~op:Fault.Write ~at:1 ~first:4 ~last:7
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  (* Outside the window and wrong direction: never counted. *)
  wr bus ~addr:0 1;
  wr bus ~addr:3 2;
  ignore (rd bus ~addr:5);
  wr bus ~addr:5 3 (* covered ordinal 0 *);
  Alcotest.(check int) "ordinal 0 landed" 3 (rd bus ~addr:5);
  let aborted =
    match wr bus ~addr:6 9 with
    | _ -> false
    | exception Fault.Bus_fault _ -> true
  in
  Alcotest.(check bool) "second covered write aborts" true aborted;
  Alcotest.(check int) "aborted write never landed" 0 (rd bus ~addr:6);
  Alcotest.(check int) "covered traffic counted" 2 (Fault.seen_for inj "w")

let test_scheduled_miss_reported () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~label:"far" ~op:Fault.Read ~at:10 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  ignore (rd bus ~addr:0);
  ignore (rd bus ~addr:0);
  Alcotest.(check int) "never reached: no hit" 0 (Fault.scheduled_hits inj);
  (match Fault.scheduled_misses inj with
  | [ m ] -> Alcotest.(check string) "the miss is reported" "far" m.Fault.sx_label
  | ms -> Alcotest.failf "expected one miss, got %d" (List.length ms));
  Alcotest.(check int) "horizon is the traffic seen" 2
    (Fault.seen_for inj "far")

let test_scheduled_block_element () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~op:Fault.Read ~at:2 ~first:0 ~last:0
            (Fault.Flip_bits { mask = 0x80; probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  wr bus ~addr:0 0x11;
  let into = Array.make 4 0 in
  bus.Bus.read_block ~width:8 ~addr:0 ~into;
  Alcotest.(check (array int)) "only element 2 of the burst is flipped"
    [| 0x11; 0x11; 0x91; 0x11 |] into;
  Alcotest.(check int) "one hit" 1 (Fault.scheduled_hits inj)

let test_scheduled_transient_aborts_burst () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~op:Fault.Write ~at:2 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let aborted =
    match bus.Bus.write_block ~width:8 ~addr:0 ~from:[| 1; 2; 3; 4 |] with
    | () -> false
    | exception Fault.Bus_fault _ -> true
  in
  Alcotest.(check bool) "mid-burst transient aborts the burst" true aborted;
  (* Pre-device abort: no element of the burst landed. *)
  Alcotest.(check int) "no element landed" 0 (rd bus ~addr:0);
  Alcotest.(check int) "one hit counted" 1 (Fault.scheduled_hits inj)

(* {1 Seed determinism} *)

(* The firing pattern of a probabilistic plan over [n] reads. *)
let fire_pattern bus inj n =
  List.init n (fun _ ->
      let before = Fault.injection_count inj in
      ignore (rd bus ~addr:0);
      Fault.injection_count inj > before)

let test_seed_determinism () =
  let pattern () =
    let inj =
      Fault.wrap ~seed:11
        ~plans:
          [
            Fault.plan ~label:"flip" ~ops:[ Fault.Read ] ~first:0 ~last:0
              (Fault.Flip_bits { mask = 0x01; probability = 0.5 });
          ]
        (Bus.memory ())
    in
    fire_pattern (Fault.bus inj) inj 32
  in
  let a = pattern () in
  Alcotest.(check (list bool)) "one seed, one fire pattern" a (pattern ());
  Alcotest.(check bool) "the pattern is non-trivial" true
    (List.mem true a && List.mem false a)

(* {1 Recovery combinators against a faulty bus} *)

let test_with_retries_recovers () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"t" ~budget:2 ~first:0 ~last:0
            (Fault.Transient { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let v = Policy.with_retries ~label:"read" (fun () -> rd bus ~addr:0) in
  Alcotest.(check int) "third attempt reads through" 0 v;
  Alcotest.(check int) "both faults were absorbed" 2
    (Fault.injection_count inj)

let test_with_retries_exhausts () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"t" ~first:0 ~last:0
            (Fault.Transient { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let degraded =
    match Policy.with_retries ~label:"read" (fun () -> rd bus ~addr:0) with
    | _ -> false
    | exception Policy.Driver_error (Policy.Degraded _) -> true
  in
  Alcotest.(check bool) "unbounded faults end in Degraded" true degraded;
  Alcotest.(check int) "one injection per attempt" Policy.default_attempts
    (Fault.injection_count inj)

(* [with_retries] re-runs only what [is_transient] accepts. A timeout,
   an exhausted budget, a device error or a plain [Failure] leaves on
   the first run, as raised; a bus fault, or a driver error carrying
   one or a device fault, is re-run to the budget and ends in
   [Degraded]. *)
let test_with_retries_only_transient () =
  let runs_with exn =
    let runs = ref 0 in
    let escaped =
      match
        Policy.with_retries ~label:"r" (fun () ->
            incr runs;
            raise exn)
      with
      | () -> Alcotest.fail "a body that always raises returned"
      | exception e -> e
    in
    (!runs, escaped)
  in
  List.iter
    (fun exn ->
      let runs, escaped = runs_with exn in
      let name = Printexc.to_string exn in
      Alcotest.(check bool) (name ^ " is not transient") false
        (Policy.is_transient exn);
      Alcotest.(check int) (name ^ ": one run") 1 runs;
      Alcotest.(check bool) (name ^ " escapes as raised") true (escaped == exn))
    [
      Policy.Driver_error (Policy.Timeout "t");
      Policy.Driver_error (Policy.Degraded "d");
      Devil_runtime.Instance.Device_error "e";
      Failure "f";
    ];
  List.iter
    (fun exn ->
      let runs, escaped = runs_with exn in
      let name = Printexc.to_string exn in
      Alcotest.(check int) (name ^ ": re-run to the budget")
        Policy.default_attempts runs;
      match escaped with
      | Policy.Driver_error (Policy.Degraded _) -> ()
      | e -> Alcotest.failf "%s: %s escaped, not Degraded" name
               (Printexc.to_string e))
    [
      Fault.Bus_fault "b";
      Policy.Driver_error (Policy.Bus_fault "b");
      Policy.Driver_error (Policy.Device_fault "f");
    ]

(* {!Policy.try_poll_for} returns the first value its condition
   produces, evaluating the condition once per tick, and [None] when
   the deadline passes first: the condition then ran [deadline]
   times. *)
let test_try_poll_for () =
  let evals = ref 0 in
  let on_third () =
    incr evals;
    if !evals = 3 then Some "ready" else None
  in
  Alcotest.(check (option string)) "the first value" (Some "ready")
    (Policy.try_poll_for ~deadline:10 on_third);
  Alcotest.(check int) "evaluated until it answered" 3 !evals;
  evals := 0;
  Alcotest.(check (option string)) "expiry is None" None
    (Policy.try_poll_for ~deadline:2 on_third);
  Alcotest.(check int) "evaluated once per tick of the deadline" 2 !evals

(* The default bounds are fixed by the program: a context's poll
   deadline is 1_000_000 unless it is built with another, positive,
   one; the retry budget is three attempts. *)
let test_default_bounds () =
  let module Ctx = Devil_runtime.Ctx in
  Alcotest.(check int) "initial poll deadline" 1_000_000
    (Ctx.create ()).poll_deadline;
  Alcotest.(check int) "a machine's deadline" 1_000_000
    (Machine.create ()).ctx.poll_deadline;
  List.iter
    (fun d ->
      match Ctx.create ~poll_deadline:d () with
      | _ -> Alcotest.failf "poll deadline %d accepted" d
      | exception Invalid_argument _ -> ())
    [ 0; -7 ];
  let ctx = Ctx.create ~poll_deadline:5 () in
  let polls = ref 0 in
  (match
     Policy.poll_until ~ctx ~label:"never" (fun () ->
         incr polls;
         false)
   with
  | () -> Alcotest.fail "a poll that never succeeds returned"
  | exception Policy.Driver_error (Policy.Timeout l) ->
      Alcotest.(check string) "timeout names the poll" "never" l);
  Alcotest.(check int) "the poll stops at the context's deadline" 5 !polls;
  let runs = ref 0 in
  (match
     Policy.with_retries ~label:"flaky" (fun () ->
         incr runs;
         Policy.fail (Policy.Bus_fault "flaky"))
   with
  | () -> Alcotest.fail "an operation that always faults returned"
  | exception Policy.Driver_error (Policy.Degraded _) -> ());
  Alcotest.(check int) "three attempts by default" 3 !runs

(* {1 Nested recovery boundaries}

   Drivers compose [guarded] and [with_retries] — a protected entry
   point calling another protected helper. The budgets must compose
   additively (the inner exhaustion is terminal, not transparently
   retried by the outer layer) and the classification must keep the
   innermost label. *)

let test_nested_retries_compose_not_multiply () =
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"t" ~first:0 ~last:0
            (Fault.Transient { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let degraded =
    match
      Policy.with_retries ~attempts:3 ~label:"outer" (fun () ->
          Policy.with_retries ~attempts:2 ~label:"inner" (fun () ->
              rd bus ~addr:0))
    with
    | _ -> false
    | exception Policy.Driver_error (Policy.Degraded _) -> true
  in
  Alcotest.(check bool) "ends Degraded" true degraded;
  (* Degraded is not transient, so the outer layer must not retry the
     inner exhaustion: 2 bus attempts, not 3 * 2. *)
  Alcotest.(check int) "inner budget only — bounds add, not multiply" 2
    (Fault.injection_count inj)

let test_nested_guarded_keeps_inner_label () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~op:Fault.Read ~at:0 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  let msg =
    match
      Policy.guarded ~label:"outer" (fun () ->
          Policy.guarded ~label:"inner" (fun () -> rd bus ~addr:0))
    with
    | _ -> "no error"
    | exception Policy.Driver_error (Policy.Bus_fault m) -> m
  in
  Alcotest.(check bool) "classified once, at the inner boundary" true
    (String.length msg >= 5 && String.sub msg 0 5 = "inner");
  Alcotest.(check bool) "not rewrapped by the outer boundary" true
    (not
       (String.length msg >= 5
       && String.sub msg 0 5 = "outer"))

let test_nested_exhaustion_counters () =
  let metrics = Devil_runtime.Metrics.create () in
  let ctx = Devil_runtime.Ctx.create ~metrics () in
  let inj =
    Fault.wrap
      ~plans:
        [
          Fault.plan ~label:"t" ~first:0 ~last:0
            (Fault.Transient { probability = 1.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  (try
     Policy.guarded ~label:"outer" (fun () ->
         Policy.with_retries ~ctx ~attempts:4 ~label:"outer" (fun () ->
             Policy.with_retries ~ctx ~attempts:2 ~label:"inner" (fun () ->
                 ignore (rd bus ~addr:0))))
   with Policy.Driver_error _ -> ());
  Alcotest.(check int) "exactly one exhaustion — the inner one" 1
    (Devil_runtime.Metrics.count metrics "retry.exhausted");
  Alcotest.(check int) "one retry attempt before exhaustion" 1
    (Devil_runtime.Metrics.count metrics "retry.attempts")

let test_nested_recovery_under_scheduled_fault () =
  let inj =
    Fault.scheduled
      ~injections:
        [
          Fault.injection ~op:Fault.Read ~at:0 ~first:0 ~last:0
            (Fault.Transient { probability = 0.0 });
        ]
      (Bus.memory ())
  in
  let bus = Fault.bus inj in
  (* The gfx/ide driver shape: guarded retries around the access. *)
  let v =
    Policy.guarded ~label:"drv" (fun () ->
        Policy.with_retries ~label:"drv" (fun () -> rd bus ~addr:0))
  in
  Alcotest.(check int) "second attempt reads through" 0 v;
  Alcotest.(check int) "the scheduled fault fired once" 1
    (Fault.scheduled_hits inj)

(* {1 End to end: the IDE sector read path recovers} *)

let test_ide_read_recovers_transient_burst () =
  let plans =
    [
      Fault.plan ~label:"transient" ~budget:2 ~first:Machine.ide_base
        ~last:(Machine.ide_base + 7)
        (Fault.Transient { probability = 1.0 });
    ]
  in
  let inj = ref None in
  let wrap_bus b =
    let i = Fault.wrap ~seed:7 ~plans b in
    inj := Some i;
    Fault.bus i
  in
  let m = Machine.create ~wrap_bus () in
  let expected = Bytes.init 512 (fun i -> Char.chr (i land 0xff)) in
  Hwsim.Ide_disk.write_sector m.disk ~lba:5 expected;
  let d = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
  let got =
    Drivers.Ide.Devil_driver.read_sectors d ~lba:5 ~count:1 ~mult:1
      ~path:`Loop ~width:`W16
  in
  Alcotest.(check string) "sector intact after recovery"
    (Bytes.to_string expected) (Bytes.to_string got);
  Alcotest.(check int) "the burst actually fired" 2
    (Fault.injection_count (Option.get !inj))

(* {1 Campaign smoke} *)

let test_campaign_transient_never_silent () =
  let report = Campaign.run ~seeds:[ 1 ] () in
  Alcotest.(check int) "full matrix, one seed"
    (List.length Campaign.driver_workloads
    * List.length Campaign.fault_classes)
    (List.length report.Campaign.trials);
  List.iter
    (fun w ->
      Alcotest.(check int)
        (w ^ ": transient plans never corrupt silently")
        0
        (Campaign.count report ~driver:w ~fault:"transient" Campaign.Silent))
    Campaign.driver_workloads;
  Alcotest.(check int) "ide-read recovers from the transient burst" 1
    (Campaign.count report ~driver:"ide-read" ~fault:"transient"
       Campaign.Recovered)

let test_campaign_deterministic () =
  let a = Campaign.run ~seeds:[ 2 ] () in
  let b = Campaign.run ~seeds:[ 2 ] () in
  Alcotest.(check bool) "same seed, same report" true (a = b)

(* Every failing trial leaves its trace, tape and Chrome trace in the
   export directory, and nothing else is written there. *)
let test_campaign_exports_failing_trials () =
  let dir = Filename.temp_dir "faultcamp" "" in
  let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (files ());
      Sys.rmdir dir)
  @@ fun () ->
  let report = Campaign.run ~seeds:[ 1 ] ~export_dir:dir () in
  let expected =
    List.concat_map
      (fun (t : Campaign.trial) ->
        match t.outcome with
        | Campaign.Detected | Campaign.Silent ->
            let base = Printf.sprintf "%s-%s-seed%d" t.driver t.fault t.seed in
            List.map (( ^ ) base) [ ".chrome.json"; ".tape.jsonl"; ".trace.jsonl" ]
        | Campaign.Clean | Campaign.Recovered -> [])
      report.Campaign.trials
  in
  Alcotest.(check bool) "some trial fails" true (expected <> []);
  Alcotest.(check (list string)) "three files per failing trial"
    (List.sort compare expected) (files ());
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) (f ^ " is not empty") true (len > 0))
    expected

(* A missing export directory is refused before the matrix runs, so a
   mistyped path costs no trials and loses no report. *)
let test_campaign_missing_export_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "faultcamp-no-such-dir" in
  let profile = Devil_runtime.Profile.create () in
  (match Campaign.run ~seeds:[ 1 ] ~profile ~export_dir:dir () with
  | _ -> Alcotest.fail "a missing export directory was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "no trial ran" 0
    (List.length (Devil_runtime.Profile.sites profile))

let () =
  Alcotest.run "fault"
    [
      ( "classes",
        [
          case "stuck bits" test_stuck_bits;
          case "flip bits" test_flip_bits;
          case "dropped write" test_drop_write;
          case "duplicated write" test_duplicate_write;
          case "transient" test_transient;
        ] );
      ( "scheduled",
        [
          case "exact ordinal" test_scheduled_exact_ordinal;
          case "window and direction" test_scheduled_window_and_direction;
          case "miss reported" test_scheduled_miss_reported;
          case "block element precision" test_scheduled_block_element;
          case "transient aborts the burst" test_scheduled_transient_aborts_burst;
        ] );
      ( "trace",
        [
          case "events and counters" test_trace_events;
          case "one seed, one fire pattern" test_seed_determinism;
        ] );
      ( "policy",
        [
          case "retries absorb a burst" test_with_retries_recovers;
          case "retries exhaust to Degraded" test_with_retries_exhausts;
          case "default bounds" test_default_bounds;
          case "only transient failures are retried"
            test_with_retries_only_transient;
          case "try_poll_for: first value or None" test_try_poll_for;
        ] );
      ( "nested",
        [
          case "bounds add, not multiply" test_nested_retries_compose_not_multiply;
          case "inner label wins" test_nested_guarded_keeps_inner_label;
          case "one exhaustion counter" test_nested_exhaustion_counters;
          case "guarded retries recover" test_nested_recovery_under_scheduled_fault;
        ] );
      ( "end-to-end",
        [ case "IDE sector read" test_ide_read_recovers_transient_burst ] );
      ( "campaign",
        [
          case "transients never silent" test_campaign_transient_never_silent;
          case "deterministic" test_campaign_deterministic;
          case "exports failing trials" test_campaign_exports_failing_trials;
          case "missing export directory refused"
            test_campaign_missing_export_dir;
        ] );
    ]
