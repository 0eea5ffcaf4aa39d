(* End-to-end tests of the devilc binary itself: check every shipped
   .dil file, generate C and documentation to files, and verify exit
   codes on bad input; likewise tracetool and benchcheck. The
   executables and the committed artifacts benchcheck reads are
   declared dune dependencies of the test (see test/dune). *)

let case name f = Alcotest.test_case name `Quick f

let devilc =
  (* cwd is the stanza directory under `dune runtest`, the project root
     under `dune exec`. *)
  List.find_opt Sys.file_exists
    [ "../bin/devilc.exe"; "_build/default/bin/devilc.exe" ]
  |> Option.value ~default:"../bin/devilc.exe"

let specs_dir =
  List.find_opt Sys.is_directory [ "../specs"; "specs" ]
  |> Option.value ~default:"../specs"

let run args =
  Sys.command (Filename.quote_command devilc args ^ " > cli_out.txt 2>&1")

let output () =
  let ic = open_in_bin "cli_out.txt" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_binary_present () =
  if not (Sys.file_exists devilc) then
    Alcotest.fail "devilc binary not found (dune deps missing)"

let test_check_all_dil_files () =
  let dir = specs_dir in
  let files = Sys.readdir dir in
  Array.sort compare files;
  Alcotest.(check bool) "specs shipped" true (Array.length files >= 11);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".dil" then begin
        let path = Filename.concat dir f in
        let args =
          if f = "pic8259.dil" then
            [ "check"; "--config"; "is_master=true"; path ]
          else [ "check"; path ]
        in
        Alcotest.(check int) (f ^ " verifies") 0 (run args);
        Alcotest.(check bool)
          (f ^ " reports") true
          (contains (output ()) "specification verified")
      end)
    files

let test_emit_c_to_file () =
  Alcotest.(check int) "emit-c" 0
    (run [ "emit-c"; "--builtin"; "logitech_busmouse"; "--prefix"; "bm";
           "-o"; "cli_busmouse.h" ]);
  let ic = open_in_bin "cli_busmouse.h" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "header content" true
    (contains text "struct bm_devil_cache")

let test_emit_c_missing_dir () =
  Alcotest.(check int) "exit code" 1
    (run [ "emit-c"; "--builtin"; "ne2000"; "-o"; "cli_no_such_dir/x.h" ]);
  let out = output () in
  Alcotest.(check bool) "names the file" true
    (contains out "devilc: cli_no_such_dir/x.h");
  Alcotest.(check bool) "no uncaught exception" false
    (contains out "uncaught exception")

let test_doc () =
  Alcotest.(check int) "doc" 0 (run [ "doc"; "--builtin"; "dma8237" ]);
  Alcotest.(check bool) "register map" true
    (contains (output ()) "Register map");
  Alcotest.(check int) "doc markdown" 0
    (run [ "doc"; "--markdown"; "--builtin"; "ide" ]);
  Alcotest.(check bool) "markdown table" true (contains (output ()) "| register |")

let test_dump_roundtrips () =
  Alcotest.(check int) "dump" 0 (run [ "dump"; "--builtin"; "cs4236b" ]);
  (* The dumped text must itself verify. *)
  let oc = open_out_bin "cli_dump.dil" in
  output_string oc (output ());
  close_out oc;
  Alcotest.(check int) "re-check of dump" 0 (run [ "check"; "cli_dump.dil" ])

let test_failures () =
  Alcotest.(check bool) "unknown builtin fails" true
    (run [ "check"; "--builtin"; "nope" ] <> 0);
  Alcotest.(check bool) "missing file fails" true
    (run [ "check"; "no_such_file.dil" ] <> 0);
  Alcotest.(check bool) "missing config fails" true
    (run [ "check"; "--builtin"; "pic8259" ] <> 0);
  let oc = open_out_bin "cli_bad.dil" in
  output_string oc "device broken (base : bit[8] port @ {0}) { register r = base : bit[8]; }";
  close_out oc;
  Alcotest.(check bool) "invalid spec fails" true
    (run [ "check"; "cli_bad.dil" ] <> 0);
  Alcotest.(check bool) "diagnostic printed" true
    (contains (output ()) "error")

(* {1 tracetool: the --kind family filter}

   The scheduler taught the trace vocabulary irq and queue events;
   pin the CLI surface: every declared family is accepted, irq/queue
   filtering keeps exactly its events, and an unknown family is a
   usage error (exit 2), leaving exit 1 to the gates. *)

let tracetool =
  List.find_opt Sys.file_exists
    [ "../tools/tracetool/tracetool.exe";
      "_build/default/tools/tracetool/tracetool.exe" ]
  |> Option.value ~default:"../tools/tracetool/tracetool.exe"

let run_tracetool args =
  Sys.command (Filename.quote_command tracetool args ^ " > cli_out.txt 2>&1")

let mixed_trace_file () =
  let open Devil_runtime.Trace in
  let events =
    List.mapi
      (fun i kind -> { seq = i; kind })
      [
        Reg_read { dev = "uart"; reg = "LSR"; raw = 0x60 };
        Irq_raised { line = 4; dev = "uart"; rid = 0 };
        Irq_delivered { line = 4; dev = "uart"; rid = 0 };
        Queue_submitted { dev = "ide"; label = "read#0"; depth = 1; rid = 1 };
        Bus_write { addr = 0x1f0; width = 16; value = 0xbeef };
        Queue_completed
          { dev = "ide"; label = "read#0"; depth = 0; ok = true; rid = 1 };
      ]
  in
  let oc = open_out_bin "cli_mixed_trace.jsonl" in
  output_string oc (Devil_runtime.Trace_export.events_to_jsonl events);
  close_out oc;
  "cli_mixed_trace.jsonl"

let test_tracetool_kind_filters () =
  if not (Sys.file_exists tracetool) then
    Alcotest.fail "tracetool binary not found (dune deps missing)";
  let file = mixed_trace_file () in
  Alcotest.(check int) "--kind irq exits 0" 0
    (run_tracetool [ "filter"; file; "--kind"; "irq" ]);
  let irq = output () in
  Alcotest.(check bool) "irq keeps Irq_raised" true (contains irq "irq_raised");
  Alcotest.(check bool) "irq keeps Irq_delivered" true
    (contains irq "irq_delivered");
  Alcotest.(check bool) "irq drops queue events" false (contains irq "queue_");
  Alcotest.(check bool) "irq drops reg events" false (contains irq "reg_read");
  Alcotest.(check int) "--kind queue exits 0" 0
    (run_tracetool [ "filter"; file; "--kind"; "queue" ]);
  let queue = output () in
  Alcotest.(check bool) "queue keeps submit" true
    (contains queue "queue_submitted");
  Alcotest.(check bool) "queue keeps completion" true
    (contains queue "queue_completed");
  Alcotest.(check bool) "queue drops irq events" false (contains queue "irq_")

let test_tracetool_kind_families () =
  let file = mixed_trace_file () in
  (* Every documented family is a valid selector. *)
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "--kind %s accepted" k)
        0
        (run_tracetool [ "filter"; file; "--kind"; k ]))
    [ "bus"; "reg"; "var"; "cache"; "action"; "policy"; "fault"; "irq";
      "queue" ]

let test_tracetool_unknown_kind () =
  let file = mixed_trace_file () in
  Alcotest.(check int) "unknown family is a usage error" 2
    (run_tracetool [ "filter"; file; "--kind"; "bogus" ]);
  Alcotest.(check bool) "names the bad family" true
    (contains (output ()) "unknown family");
  Alcotest.(check bool) "lists the accepted families" true
    (contains (output ()) "irq")

let test_tracetool_help () =
  (* Both spellings print the usage text to stdout and exit 0 — help
     is an answer, not an error (exit 2 stays reserved for misuse). *)
  List.iter
    (fun spelling ->
      Alcotest.(check int) (spelling ^ " exits 0") 0
        (run_tracetool [ spelling ]);
      let out = output () in
      Alcotest.(check bool) (spelling ^ " prints usage") true
        (contains out "usage:");
      (* The usage text covers the telemetry commands too. *)
      List.iter
        (fun cmd ->
          Alcotest.(check bool) (spelling ^ " mentions " ^ cmd) true
            (contains out cmd))
        [ "top"; "series"; "--once" ])
    [ "help"; "--help" ]

let telemetry_series_file () =
  let open Devil_runtime in
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:8 m in
  for t = 1 to 3 do
    Metrics.incr m ~by:(2 * t) "sched.completions";
    Metrics.observe m "sched.queue.wait_ticks" (5 * t);
    Telemetry.tick ~health:(Health.evaluate ~metrics:m ()) tel
  done;
  let oc = open_out_bin "cli_series.jsonl" in
  output_string oc (Trace_export.series_to_jsonl tel);
  close_out oc;
  "cli_series.jsonl"

let test_tracetool_top_once () =
  let file = telemetry_series_file () in
  Alcotest.(check int) "top --once exits 0" 0
    (run_tracetool [ "top"; file; "--once" ]);
  let out = output () in
  Alcotest.(check bool) "renders the header" true
    (contains out "tracetool top");
  Alcotest.(check bool) "shows the hottest counter" true
    (contains out "sched.completions");
  Alcotest.(check bool) "shows the health verdict" true (contains out "ok");
  Alcotest.(check bool) "no eviction banner on a clean run" false
    (contains out "RING EVICTION")

let test_tracetool_series () =
  let file = telemetry_series_file () in
  Alcotest.(check int) "series exits 0" 0 (run_tracetool [ "series"; file ]);
  let out = output () in
  Alcotest.(check bool) "lists the counter series" true
    (contains out "sched.completions");
  Alcotest.(check bool) "lists the histogram series" true
    (contains out "sched.queue.wait_ticks");
  Alcotest.(check int) "unreadable file is exit 2" 2
    (run_tracetool [ "series"; "no_such_series.jsonl" ])

(* {1 benchcheck: the offline gate over row artifacts} *)

let benchcheck =
  List.find_opt Sys.file_exists
    [ "../tools/benchcheck/benchcheck.exe";
      "_build/default/tools/benchcheck/benchcheck.exe" ]
  |> Option.value ~default:"../tools/benchcheck/benchcheck.exe"

(* A committed artifact, from the stanza directory or the root. *)
let committed name =
  List.find_opt Sys.file_exists [ "../" ^ name; name ]
  |> Option.value ~default:("../" ^ name)

let run_benchcheck args =
  Sys.command (Filename.quote_command benchcheck args ^ " > cli_out.txt 2>&1")

(* BENCH_async.json with its first [needle] replaced, written to [path]. *)
let edited_async ~path needle repl =
  let ic = open_in_bin (committed "BENCH_async.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rec find i =
    if i + String.length needle > String.length text then
      Alcotest.failf "BENCH_async.json has no %S" needle
    else if String.sub text i (String.length needle) = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  let oc = open_out_bin path in
  output_string oc
    (String.sub text 0 i ^ repl
    ^ String.sub text
        (i + String.length needle)
        (String.length text - i - String.length needle));
  close_out oc;
  path

let test_benchcheck_validates () =
  Alcotest.(check int) "committed artifact passes its gates" 0
    (run_benchcheck [ committed "BENCH_async.json" ]);
  Alcotest.(check bool) "reports the suite" true (contains (output ()) "ok (async");
  let slow =
    edited_async ~path:"cli_async_slow.json"
      "\"ratio_vs_sync\",\"unit\":\"ratio\",\"value\":2.595"
      "\"ratio_vs_sync\",\"unit\":\"ratio\",\"value\":1.5"
  in
  Alcotest.(check int) "gate violation exits 1" 1 (run_benchcheck [ slow ]);
  Alcotest.(check bool) "names the gate" true
    (contains (output ()) "ide-queued-dma/e2e/ratio_vs_sync = 1.5, gate >= 2");
  let malformed =
    edited_async ~path:"cli_async_malformed.json" "\"value\":128" "\"value\":\"128\""
  in
  Alcotest.(check int) "malformed row exits 1" 1 (run_benchcheck [ malformed ]);
  Alcotest.(check bool) "says why" true
    (contains (output ()) "must be a number or null");
  Alcotest.(check int) "unknown option exits 2" 2
    (run_benchcheck [ "--require-speedup"; committed "BENCH_async.json" ])

let test_benchcheck_compare () =
  let args old_ new_ = [ "compare"; old_; new_; "--max-regression"; "10" ] in
  Alcotest.(check int) "the committed trajectory is within 10%" 0
    (run_benchcheck (args (committed "BENCH_pr3.json") (committed "BENCH_pr5.json")));
  Alcotest.(check int) "the synthetic regression is rejected" 1
    (run_benchcheck
       (args (committed "BENCH_pr3.json") (committed "test/golden/bench_regressed.json")));
  Alcotest.(check bool) "flags the regressed rows" true
    (contains (output ()) "REGRESSED")

let test_list () =
  Alcotest.(check int) "list" 0 (run [ "list" ]);
  let out = output () in
  List.iter
    (fun name -> Alcotest.(check bool) name true (contains out name))
    [ "logitech_busmouse"; "ne2000"; "ide"; "piix4_ide"; "dma8237";
      "pic8259"; "cs4236b"; "permedia2"; "uart16550"; "mc146818"; "i8042" ]

let () =
  Alcotest.run "cli"
    [
      ( "devilc",
        [
          case "binary present" test_binary_present;
          case "check all shipped specs" test_check_all_dil_files;
          case "emit-c to file" test_emit_c_to_file;
          case "emit-c into a missing directory" test_emit_c_missing_dir;
          case "doc" test_doc;
          case "dump round-trips" test_dump_roundtrips;
          case "failure modes" test_failures;
          case "list" test_list;
        ] );
      ( "tracetool",
        [
          case "--kind irq/queue filter" test_tracetool_kind_filters;
          case "every family accepted" test_tracetool_kind_families;
          case "unknown family exits 2" test_tracetool_unknown_kind;
          case "help and --help print usage, exit 0" test_tracetool_help;
          case "top --once renders the dashboard" test_tracetool_top_once;
          case "series lists the dumped metrics" test_tracetool_series;
        ] );
      ( "benchcheck",
        [
          case "validates, gates, rejects malformed rows" test_benchcheck_validates;
          case "compare passes the trajectory, rejects the regression"
            test_benchcheck_compare;
        ] );
    ]
