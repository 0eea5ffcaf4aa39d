(* The mergeable-telemetry suite (DESIGN.md §16).

   Four angles:

   - The sampler: tick-counter time, per-metric series rings with
     bounded capacity and loud eviction accounting, counter deltas,
     and windowed histogram percentiles that answer a different
     question than the lifetime ones.
   - Determinism: identical tick streams produce byte-identical JSONL
     series dumps, and the dump round-trips through the parser.
   - The merge laws, as QCheck properties: {!Metrics.merge} and
     {!Profile.merge} are associative and commutative with the fresh
     registry as identity, and merging per-shard registries fed split
     streams equals one registry fed the concatenated stream — byte
     for byte, through the JSON and OpenMetrics exporters. The same
     split-equals-concatenated law holds for machine-generated
     registries on both runtime engines.
   - The disabled path: {!Machine.telemetry_tick} on an
     uninstrumented machine is allocation-free. *)

module Value = Devil_ir.Value
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Profile = Devil_runtime.Profile
module Health = Devil_runtime.Health
module Telemetry = Devil_runtime.Telemetry
module Trace_export = Devil_runtime.Trace_export
module Policy = Devil_runtime.Policy
module Machine = Drivers.Machine

let case name f = Alcotest.test_case name `Quick f

let qcount d =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> d)
  | None -> d

(* {1 The sampler} *)

let test_counter_series () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:8 ~hz:2.0 m in
  Alcotest.(check int) "no ticks yet" 0 (Telemetry.ticks tel);
  for t = 1 to 4 do
    Metrics.incr m ~by:t "work.done";
    Telemetry.tick tel
  done;
  Alcotest.(check int) "four ticks" 4 (Telemetry.ticks tel);
  Alcotest.(check (list string))
    "counter names" [ "work.done" ]
    (Telemetry.counter_names tel);
  let pts = Telemetry.counter_series tel "work.done" in
  Alcotest.(check int) "four points" 4 (List.length pts);
  List.iteri
    (fun i (p : Telemetry.counter_point) ->
      let t = i + 1 in
      Alcotest.(check int) (Printf.sprintf "tick %d at" t) t p.Telemetry.at;
      Alcotest.(check int)
        (Printf.sprintf "tick %d delta" t)
        t p.Telemetry.delta;
      Alcotest.(check int)
        (Printf.sprintf "tick %d total" t)
        (t * (t + 1) / 2)
        p.Telemetry.total)
    pts;
  (* Rates scale deltas by the tick frequency at display time. *)
  Alcotest.(check (option (float 1e-9)))
    "last rate = last delta * hz" (Some 8.0)
    (Telemetry.last_rate tel "work.done");
  Alcotest.(check (option (float 1e-9)))
    "mean rate = total/ticks * hz" (Some 5.0)
    (Telemetry.mean_rate tel "work.done");
  Alcotest.(check int) "no evictions" 0 (Telemetry.evictions tel)

let test_series_ring_bound () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:3 m in
  for _ = 1 to 10 do
    Metrics.incr m "c";
    Telemetry.tick tel
  done;
  let pts = Telemetry.counter_series tel "c" in
  Alcotest.(check int) "ring keeps capacity points" 3 (List.length pts);
  Alcotest.(check (list int))
    "latest ticks retained" [ 8; 9; 10 ]
    (List.map (fun (p : Telemetry.counter_point) -> p.Telemetry.at) pts);
  Alcotest.(check int) "evictions counted" 7 (Telemetry.evictions tel)

let test_windowed_vs_lifetime_percentiles () =
  let m = Metrics.create () in
  let tel = Telemetry.create m in
  (* Window 1: a hundred fast samples. Window 2: a hundred slow ones.
     The lifetime p50 straddles both populations; the window-2 p50
     sees only the slow ones. *)
  for _ = 1 to 100 do
    Metrics.observe m "lat" 1
  done;
  Telemetry.tick tel;
  for _ = 1 to 100 do
    Metrics.observe m "lat" 1000
  done;
  Telemetry.tick tel;
  let lifetime_p50 =
    match Metrics.percentile m "lat" 50.0 with
    | Some v -> v
    | None -> Alcotest.fail "lifetime histogram missing"
  in
  let w2 =
    match List.rev (Telemetry.hist_series tel "lat") with
    | last :: _ -> last
    | [] -> Alcotest.fail "no histogram window sampled"
  in
  Alcotest.(check int) "window 2 sample count" 100 w2.Telemetry.h_count;
  Alcotest.(check int) "window 2 sum" 100_000 w2.Telemetry.h_sum;
  Alcotest.(check bool)
    (Printf.sprintf "windowed p50 (%d) > lifetime p50 (%d)" w2.Telemetry.h_p50
       lifetime_p50)
    true
    (w2.Telemetry.h_p50 > lifetime_p50);
  Alcotest.(check bool)
    "windowed percentiles are ordered" true
    (w2.Telemetry.h_p50 <= w2.Telemetry.h_p95
    && w2.Telemetry.h_p95 <= w2.Telemetry.h_p99)

(* {1 Determinism: replayed ticks give byte-identical series} *)

let feed_fixture (m : Metrics.t) (tel : Telemetry.t) =
  for t = 1 to 6 do
    Metrics.incr m ~by:(3 + (t mod 2)) "sched.completions";
    Metrics.incr m "io.ops";
    Metrics.observe m "sched.queue.wait_ticks" (1 + ((t * 7) mod 40));
    Metrics.observe m "sched.queue.wait_ticks" (1 + ((t * 13) mod 90));
    let health = Health.evaluate ~metrics:m () in
    Telemetry.tick ~health tel
  done

let test_series_dump_deterministic () =
  let dump () =
    let m = Metrics.create () in
    let tel = Telemetry.create ~capacity:16 m in
    feed_fixture m tel;
    Trace_export.series_to_jsonl tel
  in
  let a = dump () and b = dump () in
  Alcotest.(check string) "two identical runs dump identical bytes" a b

let test_series_roundtrip () =
  let m = Metrics.create () in
  let tel = Telemetry.create ~capacity:16 m in
  feed_fixture m tel;
  let dump = Trace_export.series_to_jsonl tel in
  match Trace_export.series_of_jsonl dump with
  | Error e -> Alcotest.fail ("series dump did not parse back: " ^ e)
  | Ok sf ->
      Alcotest.(check int) "ticks round-trip" 6 sf.Trace_export.sf_ticks;
      Alcotest.(check int) "capacity round-trip" 16 sf.Trace_export.sf_capacity;
      Alcotest.(check int)
        "evictions round-trip"
        (Telemetry.evictions tel)
        sf.Trace_export.sf_evictions;
      let counters, hists, healths =
        List.fold_left
          (fun (c, h, l) -> function
            | Trace_export.S_counter _ -> (c + 1, h, l)
            | Trace_export.S_hist _ -> (c, h + 1, l)
            | Trace_export.S_health _ -> (c, h, l + 1))
          (0, 0, 0) sf.Trace_export.sf_points
      in
      Alcotest.(check int) "counter points" (2 * 6) counters;
      Alcotest.(check int) "hist points" 6 hists;
      Alcotest.(check int) "health points" 6 healths

let test_openmetrics_exposition () =
  let m = Metrics.create () in
  let tel = Telemetry.create m in
  Metrics.incr m ~by:42 "sched.completions";
  Metrics.observe m "sched.queue.wait_ticks" 5;
  Metrics.observe m "sched.queue.wait_ticks" 900;
  Telemetry.tick tel;
  let health = Health.evaluate ~metrics:m () in
  let out = Trace_export.to_openmetrics ~health ~telemetry:tel m in
  let has needle =
    Alcotest.(check bool) ("exposition mentions " ^ needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
       go 0)
  in
  has "# TYPE devil_sched_completions counter";
  has "devil_sched_completions_total 42";
  (* The dropped-events counter is always exported, even at zero, so
     dashboards can alert on it without a state change. *)
  has "devil_trace_dropped_events_total 0";
  has "# TYPE devil_sched_queue_wait_ticks histogram";
  has "devil_sched_queue_wait_ticks_bucket{le=\"+Inf\"} 2";
  has "devil_sched_queue_wait_ticks_count 2";
  has "devil_telemetry_ticks 1";
  has "devil_telemetry_series_evictions_total 0";
  has "devil_health 0";
  Alcotest.(check bool)
    "document ends with # EOF" true
    (let tail = "# EOF\n" in
     String.length out >= String.length tail
     && String.sub out (String.length out - String.length tail)
          (String.length tail)
        = tail)

(* A syntax pass over a machine-generated exposition: a queued NE2000
   send and UART traffic on a machine with trace, metrics, lifecycle
   and telemetry. Every line is a [# TYPE]/[# HELP] comment or a
   [name{labels} value] sample with a well-formed name, [# EOF] comes
   last, and the samples alerting depends on are present. Not a full
   OpenMetrics parser — enough to catch malformed names, missing
   values or a truncated document. *)
let test_openmetrics_line_syntax () =
  let trace = Trace.create ~capacity:4096 () in
  let metrics = Metrics.create () in
  let telemetry = Telemetry.create metrics in
  let m = Machine.create ~trace ~metrics ~telemetry ~lifecycle:true () in
  let sync = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init sync ~mac:"\x02\x00\x00\x00\x00\x42";
  let net =
    Drivers.Net.Async.create ~sched:(Machine.sched m) ~line:Machine.irq_net
      m.ne2000_dev
  in
  Drivers.Net.Async.await net (Drivers.Net.Async.send net (String.make 48 'x'));
  Drivers.Net.Async.drain net;
  Machine.Instance.get_struct m.uart_dev "line_status";
  Machine.telemetry_tick m;
  let out =
    Trace_export.to_openmetrics ~health:(Machine.health m) ~telemetry metrics
  in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         n
  in
  let line_ok line =
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; n; ("counter" | "gauge" | "histogram") ] -> name_ok n
    | "#" :: "HELP" :: n :: _ :: _ -> name_ok n
    | _ when line <> "" && line.[0] = '#' -> false
    | _ -> (
        match String.rindex_opt line ' ' with
        | None -> false
        | Some sp ->
            let series = String.sub line 0 sp in
            let name =
              match String.index_opt series '{' with
              | Some b when series.[String.length series - 1] = '}' ->
                  String.sub series 0 b
              | Some _ -> ""
              | None -> series
            in
            name_ok name
            && float_of_string_opt
                 (String.sub line (sp + 1) (String.length line - sp - 1))
               <> None)
  in
  match List.rev (String.split_on_char '\n' out) with
  | "" :: "# EOF" :: body ->
      List.iter
        (fun l -> Alcotest.(check bool) ("well-formed: " ^ l) true (line_ok l))
        body;
      List.iter
        (fun sample ->
          Alcotest.(check bool) ("has " ^ sample) true
            (List.exists (String.starts_with ~prefix:sample) body))
        [
          "devil_sched_completions_total 1";
          "devil_trace_dropped_events_total 0";
          "devil_lifecycle_ne2000_total_ns_count 1";
          "devil_health 0";
          "devil_telemetry_series_evictions_total 0";
        ]
  | _ -> Alcotest.fail "exposition must end with a single \"# EOF\" line"

(* {1 Metrics merge laws} *)

(* A shard-feedable event stream: each op is self-contained, so any
   split of the stream across registries is meaningful. *)
type mop = C of string * int | H of string * int

let mop_names = [| "a"; "b"; "io.lat"; "sched.completions" |]

let mop_gen =
  QCheck.Gen.(
    let name = map (fun i -> mop_names.(i)) (int_bound 3) in
    frequency
      [
        (1, map2 (fun n by -> C (n, by)) name (int_range 1 50));
        (1, map2 (fun n v -> H (n, v)) name (int_bound 5000));
      ])

let mop_print = function
  | C (n, by) -> Printf.sprintf "C(%s,%d)" n by
  | H (n, v) -> Printf.sprintf "H(%s,%d)" n v

let mops_arb = QCheck.make ~print:QCheck.Print.(list mop_print) QCheck.Gen.(list_size (int_bound 60) mop_gen)

let apply_mops ops =
  let m = Metrics.create () in
  List.iter
    (function C (n, by) -> Metrics.incr m ~by n | H (n, v) -> Metrics.observe m n v)
    ops;
  m

let metrics_fingerprint m =
  (* Two exporters, one truth: the JSON dump and the OpenMetrics
     exposition must both agree byte for byte. *)
  Metrics.to_json m ^ "\n" ^ Trace_export.to_openmetrics m

let prop_metrics_merge_commutative =
  QCheck.Test.make ~count:(qcount 100) ~name:"Metrics.merge is commutative"
    (QCheck.pair mops_arb mops_arb)
    (fun (xs, ys) ->
      let a = apply_mops xs and b = apply_mops ys in
      metrics_fingerprint (Metrics.merge a b)
      = metrics_fingerprint (Metrics.merge b a))

let prop_metrics_merge_associative =
  QCheck.Test.make ~count:(qcount 100) ~name:"Metrics.merge is associative"
    (QCheck.triple mops_arb mops_arb mops_arb)
    (fun (xs, ys, zs) ->
      let a = apply_mops xs and b = apply_mops ys and c = apply_mops zs in
      metrics_fingerprint (Metrics.merge (Metrics.merge a b) c)
      = metrics_fingerprint (Metrics.merge a (Metrics.merge b c)))

let prop_metrics_merge_identity =
  QCheck.Test.make ~count:(qcount 100)
    ~name:"fresh registry is Metrics.merge's identity" mops_arb (fun xs ->
      let a = apply_mops xs in
      let fp = metrics_fingerprint a in
      metrics_fingerprint (Metrics.merge a (Metrics.create ())) = fp
      && metrics_fingerprint (Metrics.merge (Metrics.create ()) a) = fp)

let prop_metrics_split_equals_concatenated =
  QCheck.Test.make ~count:(qcount 100)
    ~name:"merged split streams = one registry fed the concatenation"
    (QCheck.pair mops_arb mops_arb)
    (fun (xs, ys) ->
      let merged = Metrics.merge (apply_mops xs) (apply_mops ys) in
      let whole = apply_mops (xs @ ys) in
      metrics_fingerprint merged = metrics_fingerprint whole)

(* {1 Profile merge laws} *)

(* Deterministic span streams under a substituted clock: each op is a
   closed span (or a leaf), so streams shard cleanly. *)
type pop = Leaf of string * int | Span of string * int * pop list

let pop_sites = [| "bus.read"; "ide.cmd"; "net.tx" |]

(* Leaves appear only at top level: [Profile.leaf] under an open span
   adds self time the enclosing span's clock never covered, which
   breaks the attributed = total identity in the {e input} — the law
   under test is that merge preserves it, so the streams must satisfy
   it to begin with. *)
let pop_gen =
  QCheck.Gen.(
    let site = map (fun i -> pop_sites.(i)) (int_bound 2) in
    let span_tree =
      sized_size (int_bound 3)
        (fix (fun self n ->
             map3
               (fun s d kids -> Span (s, d, kids))
               site (int_range 1 200)
               (if n = 0 then return []
                else list_size (int_bound 2) (self (n - 1)))))
    in
    frequency
      [
        (1, map2 (fun s ns -> Leaf (s, ns)) site (int_range 1 500));
        (1, span_tree);
      ])

let rec pop_print = function
  | Leaf (s, ns) -> Printf.sprintf "Leaf(%s,%d)" s ns
  | Span (s, d, kids) ->
      Printf.sprintf "Span(%s,%d,[%s])" s d
        (String.concat ";" (List.map pop_print kids))

let pops_arb =
  QCheck.make
    ~print:QCheck.Print.(list pop_print)
    QCheck.Gen.(list_size (int_bound 12) pop_gen)

let apply_pops ops =
  let p = Profile.create () in
  let clk = ref 0 in
  Profile.set_clock p (fun () -> !clk);
  let rec run = function
    | Leaf (s, ns) -> Profile.leaf p s ns
    | Span (s, d, kids) ->
        let sp = Profile.enter p s in
        clk := !clk + d;
        List.iter run kids;
        Profile.exit p sp
  in
  List.iter run ops;
  p

let profile_fingerprint p = Trace_export.profile_to_folded p

let prop_profile_merge_commutative =
  QCheck.Test.make ~count:(qcount 60) ~name:"Profile.merge is commutative"
    (QCheck.pair pops_arb pops_arb)
    (fun (xs, ys) ->
      let a = apply_pops xs and b = apply_pops ys in
      profile_fingerprint (Profile.merge a b)
      = profile_fingerprint (Profile.merge b a))

let prop_profile_merge_associative =
  QCheck.Test.make ~count:(qcount 60) ~name:"Profile.merge is associative"
    (QCheck.triple pops_arb pops_arb pops_arb)
    (fun (xs, ys, zs) ->
      let a = apply_pops xs and b = apply_pops ys and c = apply_pops zs in
      profile_fingerprint (Profile.merge (Profile.merge a b) c)
      = profile_fingerprint (Profile.merge a (Profile.merge b c)))

let prop_profile_merge_identity_and_attribution =
  QCheck.Test.make ~count:(qcount 60)
    ~name:"fresh profiler is Profile.merge's identity; attribution holds"
    (QCheck.pair pops_arb pops_arb)
    (fun (xs, ys) ->
      let a = apply_pops xs and b = apply_pops ys in
      let merged = Profile.merge a b in
      (* The inputs keep every nanosecond attributed to some call
         path; the fold must preserve that identity and the sums. *)
      Profile.attributed_ns a = Profile.total_ns a
      && Profile.attributed_ns merged = Profile.total_ns merged
      && Profile.total_ns merged = Profile.total_ns a + Profile.total_ns b
      && profile_fingerprint (Profile.merge a (Profile.create ()))
         = profile_fingerprint a)

let prop_profile_split_equals_concatenated =
  QCheck.Test.make ~count:(qcount 60)
    ~name:"merged split span streams = one profiler fed the concatenation"
    (QCheck.pair pops_arb pops_arb)
    (fun (xs, ys) ->
      let merged = Profile.merge (apply_pops xs) (apply_pops ys) in
      let whole = apply_pops (xs @ ys) in
      profile_fingerprint merged = profile_fingerprint whole)

(* {1 Trace ring merge} *)

let test_trace_merge_seq_order () =
  let mk kinds =
    let t = Trace.create ~capacity:16 () in
    List.iter (Trace.emit t) kinds;
    t
  in
  let a =
    mk
      [
        Trace.Cache_hit { dev = "uart"; reg = "LCR" };
        Trace.Cache_miss { dev = "uart"; reg = "LSR" };
        Trace.Cache_hit { dev = "ide"; reg = "STATUS" };
      ]
  in
  let b =
    mk
      [
        Trace.Cache_invalidated { dev = "kbd" };
        Trace.Cache_hit { dev = "kbd"; reg = "DATA" };
      ]
  in
  let merged = Trace.merge_events (Trace.events a) (Trace.events b) in
  Alcotest.(check int) "all events retained" 5 (List.length merged);
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) merged in
  Alcotest.(check bool)
    "seq-ordered (non-decreasing)" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 4) seqs)
       (List.tl seqs));
  (* Equal seqs keep left-stream events first: a's seq-0 event leads. *)
  (match merged with
  | { Trace.kind = Trace.Cache_hit { dev = "uart"; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "stable merge must keep the left stream first");
  let ring = Trace.merge ~capacity:4 a b in
  Alcotest.(check int) "bounded merged ring length" 4 (Trace.length ring);
  Alcotest.(check int) "merged ring counts the eviction" 1
    (Trace.dropped ring)

(* {1 Both engines: machine-generated registries fold the same way} *)

let machine_ops : (Machine.t -> unit) list =
  [
    (fun m -> ignore (Machine.Instance.get m.Machine.uart_dev "parity_mode"));
    (fun m ->
      Machine.Instance.set m.Machine.uart_dev "parity_mode" (Value.Int 5));
    (fun m -> Machine.Instance.get_struct m.Machine.uart_dev "line_status");
    (fun m ->
      Machine.Instance.write_block m.Machine.uart_dev "tx_data"
        (Array.make 16 0x55);
      ignore (Hwsim.Uart16550.take_transmitted m.Machine.uart));
    (fun m -> ignore (Machine.Instance.get m.Machine.uart_dev "parity_mode"));
  ]

let run_machine_workload ~interpret ?metrics ops =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let m = Machine.create ~metrics ~interpret () in
  List.iter (fun op -> op m) ops;
  metrics

let test_split_equals_concatenated_both_engines () =
  (* Two shard machines, each with its own registry, merged — versus
     the same two machines feeding one shared registry (the
     concatenated metric event stream). The machines are fresh in both
     arms so the hardware-side state (caches, FIFOs) emits identical
     streams; only the registry topology differs. *)
  List.iter
    (fun interpret ->
      let shard_a = run_machine_workload ~interpret machine_ops in
      let shard_b = run_machine_workload ~interpret (List.rev machine_ops) in
      let merged = Metrics.merge shard_a shard_b in
      let shared = Metrics.create () in
      ignore (run_machine_workload ~interpret ~metrics:shared machine_ops);
      ignore
        (run_machine_workload ~interpret ~metrics:shared
           (List.rev machine_ops));
      Alcotest.(check string)
        (Printf.sprintf
           "engine interpret=%b: merged shards = concatenated stream"
           interpret)
        (metrics_fingerprint shared)
        (metrics_fingerprint merged))
    [ false; true ]

let test_engines_agree_on_fold () =
  (* The two engines count the same workload the same way, so their
     folded registries agree too — the cross-engine half of the
     acceptance law. *)
  let fp interpret =
    let a = run_machine_workload ~interpret machine_ops in
    let b = run_machine_workload ~interpret machine_ops in
    metrics_fingerprint (Metrics.merge a b)
  in
  Alcotest.(check string) "compiled and interpreted folds agree" (fp false)
    (fp true)

(* {1 Disabled path: telemetry_tick on a bare machine is free} *)

let test_disabled_telemetry_tick_allocation_free () =
  (* No metrics registry, hence no telemetry handle: the per-tick call
     a workload makes unconditionally must cost nothing. *)
  let m = Machine.create () in
  Machine.telemetry_tick m;
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 10_000 do
    Machine.telemetry_tick m
  done;
  let a1 = Gc.allocated_bytes () in
  (* allocated_bytes itself boxes its float results; allow that. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-call allocation (%.0f bytes for 10k calls)"
       (a1 -. a0))
    true
    (a1 -. a0 < 512.0)

let () =
  Alcotest.run "telemetry"
    [
      ( "sampler",
        [
          case "counter series deltas, totals and rates" test_counter_series;
          case "series ring bound and eviction count" test_series_ring_bound;
          case "windowed percentiles differ from lifetime"
            test_windowed_vs_lifetime_percentiles;
        ] );
      ( "determinism",
        [
          case "identical runs dump byte-identical series"
            test_series_dump_deterministic;
          case "series JSONL round-trips" test_series_roundtrip;
          case "OpenMetrics exposition shape" test_openmetrics_exposition;
          case "OpenMetrics line syntax, machine registry"
            test_openmetrics_line_syntax;
        ] );
      ( "merge-laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_metrics_merge_commutative;
            prop_metrics_merge_associative;
            prop_metrics_merge_identity;
            prop_metrics_split_equals_concatenated;
            prop_profile_merge_commutative;
            prop_profile_merge_associative;
            prop_profile_merge_identity_and_attribution;
            prop_profile_split_equals_concatenated;
          ] );
      ( "trace-merge",
        [ case "seq-ordered stable ring merge" test_trace_merge_seq_order ] );
      ( "engines",
        [
          case "merged shards = concatenated stream, both engines"
            test_split_equals_concatenated_both_engines;
          case "compiled and interpreted folds agree"
            test_engines_agree_on_fold;
        ] );
      ( "disabled-path",
        [
          case "telemetry_tick without a handle allocates nothing"
            test_disabled_telemetry_tick_allocation_free;
        ] );
    ]
