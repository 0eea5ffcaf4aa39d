(* {1 The benchmark trajectory: compiled plans vs the interpreter}

   [bench benchjson [--smoke] [--out FILE]] runs a fixed set of runtime
   workloads under bechamel on BOTH engines — the default compiled
   access plans and the [~interpret:true] oracle — and writes one
   [ns_per_op] row per (workload, engine), the cost-model time of one
   operation ([modeled_us]), and the interpreted/compiled [speedup] of
   the get/set workloads (DESIGN.md §9, §17). The speedup is paired:
   each get/set workload alternates [pairs] estimates of the two engines
   within the run, and the row is the median of the per-pair ratios, so
   drift of the host between estimates falls on both engines alike.
   [--smoke] samples each workload once (quota 1 ms, limit 1): the
   pipeline runs end to end, but a 1-run estimate cannot rank engines,
   so its speedup rows are null. The default output is BENCH_pr3.json. *)

module Machine = Drivers.Machine

let workloads : (string * (Machine.t -> unit -> unit)) list =
  [
    (* A standalone int variable on a cached read/write register: the
       purest register-get / register-set pair. *)
    ( "reg_get",
      fun m () -> ignore (Machine.Instance.get m.uart_dev "parity_mode") );
    ( "reg_set",
      fun m ->
        let v = Devil_ir.Value.Int 5 in
        fun () -> Machine.Instance.set m.uart_dev "parity_mode" v );
    (* The same pair through pre-resolved handles: the name lookup at
       the public API boundary — which both engines pay equally — is
       hoisted out, leaving the bare per-access path. *)
    ( "reg_get_h",
      fun m ->
        let h = Machine.Instance.handle m.uart_dev "parity_mode" in
        fun () -> ignore (Machine.Instance.get_h m.uart_dev h) );
    ( "reg_set_h",
      fun m ->
        let h = Machine.Instance.handle m.uart_dev "parity_mode" in
        let v = Devil_ir.Value.Int 5 in
        fun () -> Machine.Instance.set_h m.uart_dev h v );
    (* One volatile structure read: eight fields off a single LSR
       fetch. *)
    ( "struct_read",
      fun m () -> Machine.Instance.get_struct m.uart_dev "line_status" );
    (* A 64-element block transfer through a write-trigger block
       variable (the drained wire keeps the device buffer bounded). *)
    ( "block_write",
      fun m ->
        let data = Array.make 64 0x55 in
        fun () ->
          Machine.Instance.write_block m.uart_dev "tx_data" data;
          ignore (Hwsim.Uart16550.take_transmitted m.uart) );
    (* The Table 2 data path: a one-sector PIO read end to end. *)
    ( "ide_read",
      fun m ->
        let ide =
          Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev
        in
        fun () ->
          ignore
            (Drivers.Ide.Devil_driver.read_sectors ide ~lba:0 ~count:1 ~mult:1
               ~path:`Block ~width:`W16) );
    (* The Table 3 data path: a 10x10 rectangle fill. *)
    ( "gfx_fill",
      fun m ->
        let g = Drivers.Gfx.Devil_driver.create m.gfx_dev in
        Drivers.Gfx.Devil_driver.set_depth g 8;
        fun () ->
          Drivers.Gfx.Devil_driver.fill_rect g
            { Drivers.Gfx.x = 0; y = 0; w = 10; h = 10 }
            ~color:1 );
  ]

let estimate_ns ~quota ~limit test =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* The steady state: no compaction before each sample. With one, a
     sample times a cold op after a [Gc.compact], and the quota holds
     a few dozen short samples instead of hundreds. *)
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize:false ()
  in
  (* Smoke runs use a tiny quota/limit; when OLS cannot produce an
     estimate from so few samples we report null rather than fail. *)
  try
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun _ ols acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            match Analyze.OLS.estimates ols with
            | Some [ est ] when Float.is_finite est && est >= 0.0 -> Some est
            | _ -> None))
      results None
  with _ -> None

let modeled_us_per_op workload =
  (* Count the bus traffic of one hot-loop operation on a
     metrics-instrumented machine and convert it with the calibrated
     §4 cost model. The counts are engine-independent — the
     differential suite proves both engines issue identical traffic —
     so each workload carries a single modeled time. *)
  let metrics = Devil_runtime.Metrics.create () in
  let m = Machine.create ~metrics () in
  Fun.protect ~finally:Devil_runtime.Policy.unobserve (fun () ->
      let run = workload m in
      run ();
      (* warm the idempotent caches: measure the steady state *)
      let before = Perfmodel.Cost.sample_of_metrics metrics in
      run ();
      let after = Perfmodel.Cost.sample_of_metrics metrics in
      let delta =
        {
          Perfmodel.Cost.singles =
            after.Perfmodel.Cost.singles - before.Perfmodel.Cost.singles;
          block_items =
            after.Perfmodel.Cost.block_items - before.Perfmodel.Cost.block_items;
          irqs = 0;
        }
      in
      Perfmodel.Cost.pio_time delta *. 1e6)

let speedup_workloads = [ "reg_get"; "reg_set"; "reg_get_h"; "reg_set_h" ]
let engines = [ ("compiled", false); ("interpreted", true) ]

let median = function
  | [] -> None
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2)
         else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

let suite =
  let open Benchrow in
  let names = List.map fst workloads in
  {
    name = "benchjson";
    workloads = "benchjson" :: names;
    layers = [ "config"; "compiled"; "interpreted"; "e2e" ];
    nullable = [ "ns_per_op"; "speedup" ];
    gates =
      [
        (("benchjson", "config", "quota"), At_least 1.0);
        (("benchjson", "config", "limit"), At_least 1.0);
      ]
      @ List.concat_map
          (fun w ->
            List.concat_map
              (fun (engine, _) ->
                [
                  ((w, engine, "ns_per_op"), At_least 0.0);
                  ((w, engine, "modeled_us"), At_least 0.0);
                ])
              engines)
          names
      (* Compiled strictly faster than interpreted: 1.001 is the
         smallest ratio above 1 at the row's three decimals. *)
      @ List.map (fun w -> ((w, "e2e", "speedup"), At_least 1.001)) speedup_workloads;
  }

let usage () =
  Format.eprintf "usage: bench benchjson [--smoke] [--out FILE]@.";
  exit 2

let run args =
  let smoke = ref false and out = ref "BENCH_pr3.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | _ -> usage ()
  in
  parse args;
  Common.section "Benchmark trajectory: compiled plans vs the interpreter";
  let quota_us, limit = if !smoke then (1_000, 1) else (250_000, 2000) in
  let pairs = if !smoke then 1 else 5 in
  let quota = float_of_int quota_us /. 1e6 in
  let modeled =
    List.map (fun (name, wl) -> (name, modeled_us_per_op wl)) workloads
  in
  let machines =
    List.map
      (fun (engine, interpret) -> (engine, Machine.create ~interpret ()))
      engines
  in
  (* Per workload, its pairs of estimates, each pair an association from
     engine to estimate. Odd-numbered pairs run the interpreter first. *)
  let samples =
    List.map
      (fun (name, wl) ->
        let runs =
          List.map
            (fun (engine, m) ->
              let run = wl m in
              run ();
              (* warm caches before sampling *)
              (engine, run))
            machines
        in
        let estimate (engine, run) =
          let label = name ^ "/" ^ engine in
          let test = Bechamel.Test.make ~name:label (Bechamel.Staged.stage run) in
          (engine, estimate_ns ~quota ~limit test)
        in
        let n = if List.mem name speedup_workloads then pairs else 1 in
        ( name,
          List.init n (fun i ->
              List.map estimate (if i mod 2 = 0 then runs else List.rev runs)) ))
      workloads
  in
  let estimates =
    List.concat_map
      (fun (engine, _) ->
        List.map
          (fun (name, _) ->
            let ns =
              List.assoc name samples
              |> List.filter_map (List.assoc engine)
              |> median |> Option.map (Benchrow.fixed 3)
            in
            Format.printf "%-28s %s@." (name ^ "/" ^ engine)
              (match ns with
              | Some v -> Printf.sprintf "%12.1f ns/op" v
              | None -> "   (no estimate)");
            ((name, engine), ns))
          workloads)
      engines
  in
  let ns name engine = List.assoc (name, engine) estimates in
  let rows =
    Benchrow.
      [
        row "benchjson" "config" "quota" "us" (float_of_int quota_us);
        row "benchjson" "config" "limit" "count" (float_of_int limit);
        row "benchjson" "config" "pairs" "count" (float_of_int pairs);
      ]
    @ List.concat_map
        (fun (engine, _) ->
          List.concat_map
            (fun (name, _) ->
              [
                Benchrow.
                  {
                    workload = name;
                    layer = engine;
                    metric = "ns_per_op";
                    unit = "ns";
                    value = ns name engine;
                  };
                Benchrow.row name engine "modeled_us" "us"
                  (Benchrow.fixed 4 (List.assoc name modeled));
              ])
            workloads)
        engines
    @ List.map
        (fun name ->
          let ratio pair =
            match (List.assoc "compiled" pair, List.assoc "interpreted" pair) with
            | Some c, Some i when c > 0.0 -> Some (i /. c)
            | _ -> None
          in
          let value =
            if !smoke then None
            else
              median (List.filter_map ratio (List.assoc name samples))
              |> Option.map (Benchrow.fixed 3)
          in
          Benchrow.
            { workload = name; layer = "e2e"; metric = "speedup"; unit = "ratio"; value })
        speedup_workloads
  in
  Common.finish suite ~out:!out rows
