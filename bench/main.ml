(* The reproduction harness: regenerates every table of the paper's
   evaluation (section 4) from the simulated machine, plus the section
   4.3 micro-analysis and the introduction's bit-operation census, and
   runs a bechamel micro-benchmark suite over the same workloads.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1    # one artifact
     (table1 | table2 | table3 | table4 | census | micro | ablation |
      faultcamp | obs | obs-json | bechamel | benchjson)
     dune exec bench/main.exe -- faultcamp [--export DIR]
                                          # failing trials' traces and tapes
     dune exec bench/main.exe -- benchjson [--smoke] [--out FILE]
                                          # compiled vs interpreted ns/op
     dune exec bench/main.exe -- profile [--json] [--iters N] [--out DIR] \
       [workload ...]                      # span-profiler attribution
     dune exec bench/main.exe -- explore [--driver D]... [--depth N] \
       [--budget N] [--sites N] [--no-policy] [--out DIR]
                                          # bounded exhaustive exploration
     dune exec bench/main.exe -- explore --seeded-bug [--pin | --fixture F]
                                          # the seeded-regression pipeline
     dune exec bench/main.exe -- async [--out FILE]
                                          # queued/interrupt-driven vs polling
     dune exec bench/main.exe -- latency [--out FILE] [--trace-dir DIR]
                                          # per-stage request-latency accounting
     dune exec bench/main.exe -- soak [--ticks N] [--out FILE] \
       [--series FILE] [--openmetrics FILE] # telemetry soak
     dune exec bench/main.exe -- harness [--qcount N] [--threshold PCT] \
       [--missed]                          # generated per-spec batteries

   Every suite lives in its own module of the bench library; this file
   only dispatches. Paper-vs-measured commentary lives in
   EXPERIMENTS.md. *)

open Bench_suites

let () =
  let artifacts =
    [
      ("table1", Paper.table1);
      ("table2", Paper.table2);
      ("table3", Paper.table3);
      ("table4", Paper.table4);
      ("census", Paper.census);
      ("micro", Paper.micro);
      ("ablation", Paper.ablation);
      ("faultcamp", fun () -> Faults.run []);
      ("obs", Obs.run);
      ("obs-json", Obs.run_json);
      ("bechamel", Bechamel_suite.run);
      ("benchjson", fun () -> Benchjson.run []);
    ]
  in
  match List.tl (Array.to_list Sys.argv) with
  | "benchjson" :: (flag :: _ as rest) when String.starts_with ~prefix:"-" flag
    ->
      Benchjson.run rest
  | "faultcamp" :: (flag :: _ as rest) when String.starts_with ~prefix:"-" flag
    ->
      Faults.run rest
  | "profile" :: rest -> Span_profile.run rest
  | "explore" :: rest -> Exploration.run rest
  | "async" :: rest -> Async.run rest
  | "latency" :: rest -> Latency.run rest
  | "soak" :: rest -> Soak.run rest
  | "harness" :: rest -> Harness.run rest
  | [] ->
      Format.printf
        "Devil (OSDI 2000) reproduction: regenerating every evaluation \
         artifact.@.";
      List.iter (fun (_, f) -> f ()) artifacts
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Format.eprintf "unknown artifact %s (have: %s)@." name
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names
