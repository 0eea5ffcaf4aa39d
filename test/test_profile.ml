(* The span-profiler suite (DESIGN.md §11).

   Four angles:

   - Metrics percentile estimation: exact expectations at the
     power-of-two bucket boundaries, the single-sample clamp, the
     empty-histogram None, and monotonicity in the quantile.
   - Span arithmetic under a deterministic substituted clock: the
     self/total split, the attributed = total identity, the call-path
     trie shape, [leaf] attribution, and exception safety; spans
     count nothing, so a profiled machine leaves the registry an
     unprofiled one does.
   - Transparency: a QCheck property that running ANY random op
     sequence with the profiler enabled produces exactly the same
     outcomes and the same trace stream as without it, on both
     engines — the profiler observes, it must never perturb. Plus the
     disabled-path discipline: [Bus.observed] with no handles is
     physically the identity.
   - Exporters: folded stacks and speedscope JSON from a profile with
     known arithmetic; the speedscope document has the file-format
     shape speedscope loads. *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Profile = Devil_runtime.Profile
module Trace_export = Devil_runtime.Trace_export
module Specs = Devil_specs.Specs

let qcount d =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> d)
  | None -> d

(* {1 Metrics percentiles} *)

let test_bucket_boundaries () =
  Alcotest.(check int) "bucket_upper 0" 0 (Metrics.bucket_upper 0);
  Alcotest.(check int) "bucket_upper 1" 1 (Metrics.bucket_upper 1);
  Alcotest.(check int) "bucket_upper 2" 3 (Metrics.bucket_upper 2);
  Alcotest.(check int) "bucket_upper 3" 7 (Metrics.bucket_upper 3);
  (* bucket_of and bucket_upper agree: a bucket's upper bound falls in
     that bucket, and upper+1 falls in the next. *)
  for i = 1 to 16 do
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (bucket_upper %d)" i)
      i
      (Metrics.bucket_of (Metrics.bucket_upper i));
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (bucket_upper %d + 1)" i)
      (i + 1)
      (Metrics.bucket_of (Metrics.bucket_upper i + 1))
  done;
  Alcotest.(check int) "bucket_of 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "bucket_of -5" 0 (Metrics.bucket_of (-5))

(* Both estimators, and the p50/p95/p99 a snapshot reports, are
   monotone in the quantile: a higher quantile never estimates lower. *)
let prop_percentiles_monotone =
  QCheck.Test.make ~count:(qcount 200) ~name:"percentiles are monotone in p"
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 50) (int_bound 5_000_000))
        (float_range 0.001 1.0) (float_range 0.001 1.0))
    (fun (samples, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let m = Metrics.create () in
      List.iter (Metrics.observe m "h") samples;
      let p q = Option.get (Metrics.percentile m "h" q) in
      let bp q =
        Metrics.bucket_percentile ~count:(List.length samples)
          ~min_value:(List.fold_left min max_int samples)
          ~max_value:(List.fold_left max 0 samples)
          (Option.get (Metrics.hist_buckets m "h"))
          q
      in
      let s = Option.get (Metrics.histogram m "h") in
      p lo <= p hi && bp lo <= bp hi && s.p50 <= s.p95 && s.p95 <= s.p99)

let test_percentile_1_to_8 () =
  let m = Metrics.create () in
  for v = 1 to 8 do
    Metrics.observe m "h" v
  done;
  (* rank ceil(0.5 * 8) = 4 lands in bucket 3 (samples 4..7), whose
     upper bound is 7 and needs no clamping. *)
  Alcotest.(check (option int)) "p50 of 1..8" (Some 7)
    (Metrics.percentile m "h" 0.5);
  (* rank 8 lands in bucket 4 (upper 15), clamped to the observed max. *)
  Alcotest.(check (option int)) "p95 of 1..8" (Some 8)
    (Metrics.percentile m "h" 0.95);
  Alcotest.(check (option int)) "p99 of 1..8" (Some 8)
    (Metrics.percentile m "h" 0.99);
  (* rank 1 lands in bucket 1 (upper 1), clamped up to the min = 1. *)
  Alcotest.(check (option int)) "p0.01 of 1..8" (Some 1)
    (Metrics.percentile m "h" 0.01)

let test_percentile_single_sample () =
  List.iter
    (fun v ->
      let m = Metrics.create () in
      Metrics.observe m "h" v;
      List.iter
        (fun q ->
          Alcotest.(check (option int))
            (Printf.sprintf "q%.2f of single %d" q v)
            (Some v)
            (Metrics.percentile m "h" q))
        [ 0.5; 0.95; 0.99 ])
    [ 0; 1; 5; 1000; 123_456 ]

let test_percentile_empty () =
  let m = Metrics.create () in
  Alcotest.(check (option int)) "p50 of nothing" None
    (Metrics.percentile m "h" 0.5);
  Alcotest.(check bool) "histogram of nothing" true
    (Metrics.histogram m "h" = None);
  (* A present-but-foreign histogram does not leak into "h". *)
  Metrics.observe m "other" 3;
  Alcotest.(check (option int)) "p50 still None" None
    (Metrics.percentile m "h" 0.5)

let test_hist_snapshot_percentiles () =
  let m = Metrics.create () in
  List.iter (fun v -> Metrics.observe m "h" v) [ 10; 20; 30; 40; 1000 ];
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 5 h.Metrics.count;
      Alcotest.(check int) "min" 10 h.Metrics.min;
      Alcotest.(check int) "max" 1000 h.Metrics.max;
      Alcotest.(check int)
        "snapshot p50 = percentile 0.5"
        (Option.get (Metrics.percentile m "h" 0.5))
        h.Metrics.p50;
      Alcotest.(check int)
        "snapshot p95 = percentile 0.95"
        (Option.get (Metrics.percentile m "h" 0.95))
        h.Metrics.p95;
      Alcotest.(check int)
        "snapshot p99 = percentile 0.99"
        (Option.get (Metrics.percentile m "h" 0.99))
        h.Metrics.p99

(* {1 Span arithmetic under a deterministic clock} *)

(* A profiler whose clock is a mutable cell the test advances by
   hand — every duration below is exact, no tolerance needed. *)
let clocked () =
  let now = ref 0 in
  let p = Profile.create () in
  Profile.set_clock p (fun () -> !now);
  (p, now)

let test_span_arithmetic () =
  let p, now = clocked () in
  let a = Profile.enter p "a" in
  now := 100;
  let b = Profile.enter p "b" in
  now := 130;
  Profile.exit p b;
  now := 150;
  Profile.exit p a;
  Alcotest.(check int) "total" 150 (Profile.total_ns p);
  Alcotest.(check int) "attributed = total" 150 (Profile.attributed_ns p);
  Alcotest.(check int) "live_depth" 0 (Profile.live_depth p);
  Alcotest.(check int) "unbalanced_exits" 0 (Profile.unbalanced_exits p);
  let site key =
    match Profile.site p key with
    | Some s -> s
    | None -> Alcotest.fail ("missing site " ^ key)
  in
  let sa = site "a" and sb = site "b" in
  Alcotest.(check int) "a calls" 1 sa.Profile.calls;
  Alcotest.(check int) "a total" 150 sa.Profile.total_ns;
  Alcotest.(check int) "a self" 120 sa.Profile.self_ns;
  Alcotest.(check int) "b total" 30 sb.Profile.total_ns;
  Alcotest.(check int) "b self" 30 sb.Profile.self_ns;
  Alcotest.(check int) "b p50 clamps to the sample" 30 sb.Profile.p50_ns;
  (* Trie shape: one root "a" with one child "b". *)
  match Profile.roots p with
  | [ ra ] -> (
      Alcotest.(check string) "root name" "a" (Profile.node_name ra);
      Alcotest.(check int) "root total" 150 (Profile.node_total_ns ra);
      Alcotest.(check int) "root self" 120 (Profile.node_self_ns ra);
      match Profile.node_children ra with
      | [ rb ] ->
          Alcotest.(check string) "child name" "b" (Profile.node_name rb);
          Alcotest.(check int) "child total" 30 (Profile.node_total_ns rb)
      | kids ->
          Alcotest.fail (Printf.sprintf "expected 1 child, got %d"
                           (List.length kids)))
  | roots ->
      Alcotest.fail (Printf.sprintf "expected 1 root, got %d"
                       (List.length roots))

let test_span_leaf_and_siblings () =
  let p, now = clocked () in
  Profile.span p "op" (fun () ->
      now := 40;
      Profile.leaf p "bus" 15;
      Profile.span p "sub" (fun () -> now := 100);
      now := 120);
  (* op total 120; children: bus 15 (externally timed) + sub 60;
     self = 120 - 75 = 45. *)
  let s key = Option.get (Profile.site p key) in
  Alcotest.(check int) "op self" 45 (s "op").Profile.self_ns;
  Alcotest.(check int) "bus self" 15 (s "bus").Profile.self_ns;
  Alcotest.(check int) "sub self" 60 (s "sub").Profile.self_ns;
  Alcotest.(check int) "attributed = total" (Profile.total_ns p)
    (Profile.attributed_ns p);
  (* The same key under two parents is two trie nodes but one site. *)
  Profile.span p "op2" (fun () ->
      Profile.span p "sub" (fun () -> now := !now + 5));
  Alcotest.(check int) "sub called twice" 2 (s "sub").Profile.calls;
  let rec count_named name nodes =
    List.fold_left
      (fun acc n ->
        (if Profile.node_name n = name then 1 else 0)
        + acc
        + count_named name (Profile.node_children n))
      0 nodes
  in
  Alcotest.(check int) "two 'sub' trie nodes" 2
    (count_named "sub" (Profile.roots p))

let test_span_exception_safety () =
  let p, now = clocked () in
  (try
     Profile.span p "outer" (fun () ->
         let _inner = Profile.enter p "inner" in
         now := 50;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "live_depth after raise" 0 (Profile.live_depth p);
  Alcotest.(check int) "unbalanced_exits" 0 (Profile.unbalanced_exits p);
  (* The abandoned inner span was closed by its parent's exit. *)
  Alcotest.(check int) "inner recorded" 1
    (Option.get (Profile.site p "inner")).Profile.calls;
  Alcotest.(check int) "attributed = total" (Profile.total_ns p)
    (Profile.attributed_ns p)

(* The profiler times spans and counts nothing: a machine running a
   driver under a profiler leaves the same registry as one without, on
   both engines, while the profile does record the driver's spans. *)
let test_profile_adds_no_metric () =
  let run ~interpret profile =
    let metrics = Metrics.create () in
    let m = Drivers.Machine.create ~metrics ?profile ~interpret () in
    let module D = Drivers.Ide.Devil_driver in
    let d = D.create ~ide:m.ide_dev ~piix4:m.piix4_dev in
    D.write_sectors d ~lba:8 ~count:2 ~mult:1 ~path:`Block ~width:`W16
      (Bytes.make 1024 'p');
    ignore (D.read_sectors d ~lba:8 ~count:2 ~mult:1 ~path:`Loop ~width:`W16);
    Metrics.to_json metrics
  in
  List.iter
    (fun interpret ->
      let profile = Profile.create () in
      let plain = run ~interpret None in
      let profiled = run ~interpret (Some profile) in
      Alcotest.(check bool) "the profile holds the driver's polls" true
        (List.exists
           (fun (key, _) -> String.starts_with ~prefix:"poll:" key)
           (Profile.sites profile));
      Alcotest.(check string)
        (Printf.sprintf "interpret=%b: the same registry with a profiler"
           interpret)
        plain profiled)
    [ false; true ]

(* {1 Bus.observed identity} *)

let test_bus_observed_identity () =
  let bus = Bus.memory ~size:64 () in
  Alcotest.(check bool) "no handles: physically the same bus" true
    (Bus.observed bus == bus);
  let p = Profile.create () in
  Alcotest.(check bool) "with a profiler: a new wrapper" true
    (Bus.observed ~ctx:(Devil_runtime.Ctx.create ~profile:p ()) bus != bus)

(* {1 Transparency: the profiler never perturbs the run} *)

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
      Printf.sprintf "write_block %s len:%d" n (Array.length d)
  | Invalidate -> "invalidate_cache"

let gen_op (device : Ir.device) : op QCheck.Gen.t =
  let open QCheck.Gen in
  let pub_vars = Ir.public_vars device in
  let pub_structs = Ir.public_structs device in
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
      pub_structs
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

let build_engine ?profile ~interpret ~seed (device : Ir.device) bases =
  let raw = Bus.memory ~size:4096 () in
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  for addr = 0 to 2047 do
    raw.Bus.write ~width:32 ~addr ~value:(Random.State.int rng 0x10000)
  done;
  let trace = Trace.create ~capacity:200_000 () in
  let ctx = Devil_runtime.Ctx.create ~trace ?profile () in
  let bus = Bus.observed ~ctx raw in
  let inst = Instance.create ~label:"prof" ~ctx ~interpret device ~bus ~bases in
  (inst, trace)

let transparency_property name (device : Ir.device) =
  let bases = bases_for device in
  let gen =
    QCheck.Gen.(
      triple (int_bound 0xffff) bool
        (list_size (int_range 1 25) (gen_op device)))
  in
  let print (seed, interpret, ops) =
    Printf.sprintf "seed:%d interpret:%b\n%s" seed interpret
      (String.concat "\n" (List.map pp_op ops))
  in
  let arb = QCheck.make ~print gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "profiler is transparent on %s" name)
    ~count:(qcount 40) arb
    (fun (seed, interpret, ops) ->
      let profile = Profile.create () in
      let plain, tp = build_engine ~interpret ~seed device bases in
      let profiled, tq =
        build_engine ~profile ~interpret ~seed device bases
      in
      List.iteri
        (fun i op ->
          let a = run_op plain op in
          let b = run_op profiled op in
          if a <> b then
            QCheck.Test.fail_reportf "op %d (%s): plain %s, profiled %s" i
              (pp_op op) (pp_outcome a) (pp_outcome b))
        ops;
      if Trace.events tp <> Trace.events tq then
        QCheck.Test.fail_reportf "trace streams diverge under the profiler";
      (* And the profiler itself stayed coherent while observing. *)
      if Profile.live_depth profile <> 0 then
        QCheck.Test.fail_reportf "profiler left %d spans open"
          (Profile.live_depth profile);
      if Profile.unbalanced_exits profile <> 0 then
        QCheck.Test.fail_reportf "%d unbalanced exits"
          (Profile.unbalanced_exits profile);
      let total = Profile.total_ns profile in
      let attributed = Profile.attributed_ns profile in
      if total > 0 && attributed * 100 < total * 95 then
        QCheck.Test.fail_reportf
          "only %d of %d ns attributed (< 95%%)" attributed total;
      if attributed > total then
        QCheck.Test.fail_reportf "attributed %d ns > total %d ns" attributed
          total;
      true)

(* {1 Exporters} *)

let test_exporters () =
  let p, now = clocked () in
  Profile.span p "root" (fun () ->
      now := 10;
      Profile.span p "kid" (fun () -> now := 40);
      now := 100);
  let folded = Trace_export.profile_to_folded p in
  Alcotest.(check string) "folded stacks" "root 70\nroot;kid 30\n" folded;
  let ss = Trace_export.profile_to_speedscope ~name:"t" p in
  let field k = function
    | Trace_export.Obj fs -> (
        match List.assoc_opt k fs with
        | Some v -> v
        | None -> Alcotest.failf "speedscope: missing field %S" k)
    | _ -> Alcotest.failf "speedscope: %S is not in an object" k
  in
  let list = function
    | Trace_export.List l -> l
    | _ -> Alcotest.fail "speedscope: expected an array"
  in
  let doc =
    match Trace_export.json_of_string ss with
    | Ok j -> j
    | Error e -> Alcotest.fail ("speedscope JSON does not parse: " ^ e)
  in
  Alcotest.(check bool) "$schema is the speedscope file-format URL" true
    (field "$schema" doc
    = Trace_export.String "https://www.speedscope.app/file-format-schema.json");
  let frames = list (field "frames" (field "shared" doc)) in
  Alcotest.(check int) "one frame per span key" 2 (List.length frames);
  List.iter
    (fun f ->
      Alcotest.(check bool) "frame named" true
        (field "name" f <> Trace_export.String ""))
    frames;
  match list (field "profiles" doc) with
  | [ prof ] ->
      Alcotest.(check bool) "sampled profile" true
        (field "type" prof = Trace_export.String "sampled");
      Alcotest.(check bool) "in nanoseconds" true
        (field "unit" prof = Trace_export.String "nanoseconds");
      let samples = list (field "samples" prof)
      and weights = list (field "weights" prof) in
      Alcotest.(check int) "one weight per sample" (List.length samples)
        (List.length weights);
      Alcotest.(check bool) "weights are the self times" true
        (weights = [ Trace_export.Int 70; Trace_export.Int 30 ]);
      Alcotest.(check bool) "spans [0, total]" true
        (field "startValue" prof = Trace_export.Int 0
        && field "endValue" prof = Trace_export.Int 100);
      List.iter
        (fun stack ->
          Alcotest.(check bool) "non-empty stack of in-range frame indices" true
            (list stack <> []
            && List.for_all
                 (function
                   | Trace_export.Int i -> i >= 0 && i < List.length frames
                   | _ -> false)
                 (list stack)))
        samples
  | ps -> Alcotest.failf "expected one profile, got %d" (List.length ps)

let () =
  let devices = [ ("uart16550", Specs.uart16550 ()); ("ide", Specs.ide ()) ] in
  Alcotest.run "profile"
    [
      ( "percentiles",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "samples 1..8" `Quick test_percentile_1_to_8;
          Alcotest.test_case "single sample" `Quick
            test_percentile_single_sample;
          Alcotest.test_case "empty histogram" `Quick test_percentile_empty;
          Alcotest.test_case "snapshot percentiles" `Quick
            test_hist_snapshot_percentiles;
          QCheck_alcotest.to_alcotest prop_percentiles_monotone;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self/total arithmetic" `Quick
            test_span_arithmetic;
          Alcotest.test_case "leaves and sibling nodes" `Quick
            test_span_leaf_and_siblings;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "a profiled machine counts the same" `Quick
            test_profile_adds_no_metric;
          Alcotest.test_case "Bus.observed identity" `Quick
            test_bus_observed_identity;
        ] );
      ( "transparency",
        List.map
          (fun (name, device) ->
            QCheck_alcotest.to_alcotest (transparency_property name device))
          devices );
      ( "exporters",
        [ Alcotest.test_case "folded + speedscope" `Quick test_exporters ] );
    ]
