(* Differential property suite: the compiled access-plan engine
   (Devil_runtime.Plan, the default) against the interpreting engine
   (Instance.create ~interpret:true), the oracle.

   For every bundled specification, random sequences of driver
   operations — variable get/set, structure read/write, block and wide
   transfers, indexed register access, cache invalidation — are run on
   two instances of the same device bound to two identically seeded
   memory buses. The engines must produce identical outcomes per
   operation (same value, or the same Device_error message, or the same
   Not_found / Invalid_argument / Bus_fault) AND an identical
   observability trace: every bus transfer, register access, cache
   hit/miss, action and serialization event, in the same order with the
   same payloads. The trace comparison is what makes the property
   strong — a compiled path that reads a register one extra time, or
   caches where the interpreter does not, fails even when the returned
   values agree.

   DEVIL_QCHECK_COUNT scales the iteration count (default 60 sequences
   per spec; the acceptance run uses 500). *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Monitor = Devil_runtime.Monitor
module Specs = Devil_specs.Specs
module Opgen = Specharness.Opgen
module Diffbat = Specharness.Diffbat

let qcount d =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> d)
  | None -> d

(* {1 Per-device generation universe} *)

(* Values that mostly belong to the type, with a sprinkle of wrong-kind
   and out-of-range values so the dynamic-check error paths are
   differentially exercised too. *)
let gen_value (ty : Dtype.t) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let bogus =
    oneof
      [
        map (fun n -> Value.Int n) (oneofl [ -1; 1 lsl 20; 257 ]);
        return (Value.Bool true);
        return (Value.Enum "NO_SUCH_CASE");
      ]
  in
  let good =
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
  in
  frequency [ (9, good); (1, bogus) ]

let gen_op (device : Ir.device) : Opgen.op QCheck.Gen.t =
  let open QCheck.Gen in
  let pub_vars = Ir.public_vars device in
  let pub_structs = Ir.public_structs device in
  let block_vars =
    List.filter (fun (v : Ir.var) -> v.v_behaviour.b_block) device.d_vars
  in
  let templates = device.Ir.d_templates in
  let var_ops =
    List.concat_map
      (fun (v : Ir.var) ->
        [
          (3, map (fun () -> Opgen.Get v.v_name) unit);
          ( 3,
            map
              (fun value -> Opgen.Set (v.v_name, value))
              (gen_value v.v_type) );
        ])
      pub_vars
  in
  let struct_ops =
    List.concat_map
      (fun (s : Ir.strct) ->
        let fields =
          List.filter_map (fun f -> Ir.find_var device f) s.s_fields
        in
        let gen_fields =
          (* A random sub-assignment of the fields, occasionally with a
             field that does not belong to the structure. *)
          let field_gen (v : Ir.var) =
            map
              (fun (keep, value) ->
                if keep then Some (v.v_name, value) else None)
              (pair bool (gen_value v.v_type))
          in
          map
            (fun (assigned, rogue) ->
              let assigned = List.filter_map Fun.id assigned in
              if rogue then ("not_a_field", Value.Int 0) :: assigned
              else assigned)
            (pair (flatten_l (List.map field_gen fields)) (frequency [ (19, return false); (1, return true) ]))
        in
        [
          (2, map (fun () -> Opgen.Get_struct s.s_name) unit);
          (2, map (fun fs -> Opgen.Set_struct (s.s_name, fs)) gen_fields);
        ])
      pub_structs
  in
  let block_ops =
    List.concat_map
      (fun (v : Ir.var) ->
        [
          (1, map (fun c -> Opgen.Read_block (v.v_name, c)) (int_range 0 6));
          ( 1,
            map
              (fun l -> Opgen.Write_block (v.v_name, Array.of_list l))
              (list_size (int_range 0 6) (int_range 0 0xffff)) );
          ( 1,
            map (fun s -> Opgen.Read_wide (v.v_name, s)) (oneofl [ 1; 2; 4 ])
          );
          ( 1,
            map
              (fun (s, value) -> Opgen.Write_wide (v.v_name, s, value))
              (pair (oneofl [ 1; 2; 4 ]) (int_range 0 0xffff)) );
        ])
      block_vars
  in
  let indexed_ops =
    List.concat_map
      (fun (tp : Ir.template) ->
        let gen_args =
          flatten_l
            (List.map
               (fun (_, legal) ->
                 frequency
                   [
                     (9, oneofl legal);
                     (1, return 997 (* out of every declared range *));
                   ])
               tp.t_params)
        in
        [
          ( 1,
            map (fun args -> Opgen.Read_indexed (tp.t_name, args)) gen_args );
          ( 1,
            map
              (fun (args, v) -> Opgen.Write_indexed (tp.t_name, args, v))
              (pair gen_args (int_range 0 0xffff)) );
        ])
      templates
  in
  let all =
    var_ops @ struct_ops @ block_ops @ indexed_ops
    @ [ (1, return Opgen.Invalidate) ]
  in
  frequency all

(* {1 Running one scenario on both engines} *)

(* Two instances of the same device over two identically pre-seeded
   memory buses, each observed by its own trace and metrics registry. *)
let build_engine ~interpret ~debug ~seed (device : Ir.device) bases =
  let raw = Bus.memory ~size:4096 () in
  Diffbat.seed_bus ~seed raw;
  let trace = Trace.create ~capacity:200_000 () in
  let metrics = Devil_runtime.Metrics.create () in
  let ctx = Devil_runtime.Ctx.create ~trace ~metrics () in
  let bus = Bus.observed ~ctx raw in
  let inst =
    Instance.create ~debug ~label:"diff" ~ctx ~interpret device ~bus ~bases
  in
  (inst, trace, metrics)

let diff_property name (device : Ir.device) =
  let bases = Diffbat.bases_for device in
  let gen =
    QCheck.Gen.(
      triple (int_bound 0xffff) bool (list_size (int_range 1 30) (gen_op device)))
  in
  let print (seed, debug, ops) =
    Printf.sprintf "seed:%d debug:%b\n%s" seed debug
      (String.concat "\n" (List.map Opgen.pp_op ops))
  in
  let shrink (seed, debug, ops) =
    QCheck.Iter.map
      (fun ops -> (seed, debug, ops))
      (QCheck.Shrink.list ops)
  in
  let arb = QCheck.make ~print ~shrink gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled = interpreter on %s" name)
    ~count:(qcount 60) arb
    (fun (seed, debug, ops) ->
      let compiled, tc, mc = build_engine ~interpret:false ~debug ~seed device bases in
      let interp, ti, mi = build_engine ~interpret:true ~debug ~seed device bases in
      List.iteri
        (fun i op ->
          let oc = Opgen.run_op compiled op in
          let oi = Opgen.run_op interp op in
          if oc <> oi then
            QCheck.Test.fail_reportf
              "op %d (%s): compiled %s, interpreter %s" i (Opgen.pp_op op)
              (Opgen.pp_outcome oc) (Opgen.pp_outcome oi))
        ops;
      let ec = Trace.events tc and ei = Trace.events ti in
      if ec <> ei then
        QCheck.Test.fail_reportf "trace divergence: %s"
          (Diffbat.explain_trace_divergence tc ti);
      (* Both engines count the same work: the same counters and
         histograms, cache outcomes and per-register I/O included. *)
      Option.iter
        (QCheck.Test.fail_reportf "metrics: %s")
        (Diffbat.metrics_divergence mc mi);
      (* Third oracle: the online protocol monitor re-derives the
         interface disciplines from the IR alone; a clean run must
         produce zero violations. *)
      let mon = Monitor.create ~devices:[ ("diff", device) ] in
      Monitor.feed_all mon ec;
      (match Monitor.violations mon with
      | [] -> ()
      | v :: _ ->
          QCheck.Test.fail_reportf "monitor: %a (of %d violation(s))"
            Monitor.pp_violation v
            (Monitor.violation_count mon));
      (* Post-condition: every statically known register holds the same
         cached raw on both engines. *)
      List.iter
        (fun (r : Ir.reg) ->
          let c = Instance.cached_raw compiled r.r_name in
          let i = Instance.cached_raw interp r.r_name in
          if c <> i then
            QCheck.Test.fail_reportf "cached_raw %s: compiled %s, interpreter %s"
              r.r_name
              (match c with Some x -> string_of_int x | None -> "-")
              (match i with Some x -> string_of_int x | None -> "-"))
        device.Ir.d_regs;
      true)

(* The metrics oracle itself: equal registries agree, and a registry
   one count or one histogram sample apart is reported by name. *)
let test_metrics_divergence () =
  let module Metrics = Devil_runtime.Metrics in
  let registry ~hits ~samples =
    let m = Metrics.create () in
    Metrics.incr m ~by:hits "cache.diff.hits";
    Metrics.incr m "io.diff.reg_reads";
    List.iter (Metrics.observe m "poll.iters") samples;
    m
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let divergence a b =
    match Diffbat.metrics_divergence a b with
    | Some d -> d
    | None -> Alcotest.fail "registries that differ were found equal"
  in
  Alcotest.(check (option string)) "equal registries agree" None
    (Diffbat.metrics_divergence
       (registry ~hits:2 ~samples:[ 1; 3 ])
       (registry ~hits:2 ~samples:[ 1; 3 ]));
  let d =
    divergence (registry ~hits:1 ~samples:[ 1; 3 ])
      (registry ~hits:2 ~samples:[ 1; 3 ])
  in
  Alcotest.(check bool) ("a missed hit is named: " ^ d) true
    (contains d "cache.diff.hits");
  let d =
    divergence (registry ~hits:2 ~samples:[ 1 ])
      (registry ~hits:2 ~samples:[ 1; 3 ])
  in
  Alcotest.(check bool) ("a missing sample is named: " ^ d) true
    (contains d "poll.iters");
  let d = divergence (Metrics.create ()) (registry ~hits:1 ~samples:[]) in
  Alcotest.(check bool) ("a counter on one side only is named: " ^ d) true
    (contains d "cache.diff.hits")

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

let () =
  Alcotest.run "plan_diff"
    [
      ( "differential",
        List.map
          (fun (name, device) ->
            QCheck_alcotest.to_alcotest (diff_property name device))
          devices );
      ( "oracles",
        [
          Alcotest.test_case "metrics divergence is named" `Quick
            test_metrics_divergence;
        ] );
    ]
