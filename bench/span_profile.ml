(* {1 bench profile: per-workload span attribution (DESIGN.md §11)}

   Runs each benchjson workload on a profiler-instrumented machine and
   reports where the time went: measured ns/op from the monotonic span
   clock vs the calibrated §4 cost model, the share of wall time
   attributed to spans (self time summed over the call-path trie equals
   the root total by construction — the column guards the aggregation),
   and the top self-time sites with their latency percentiles.

     --json      deterministic counts-only JSON (sorted site keys and
                 call counts, no timings) — pinned as
                 test/golden/bench_profile.json
     --iters N   hot-loop iterations per workload (default 100)
     --out DIR   also write DIR/<workload>.folded (flamegraph.pl) and
                 DIR/<workload>.speedscope.json (speedscope.app) *)

module Machine = Drivers.Machine

let usage () =
  Format.eprintf
    "usage: bench profile [--json] [--iters N] [--out DIR] [workload ...]@.";
  Format.eprintf "workloads: %s@."
    (String.concat ", " (List.map fst Benchjson.workloads))

let workload ~iters name wl =
  let profile = Devil_runtime.Profile.create () in
  let m = Machine.create ~profile () in
  let run = wl m in
  (* warm the idempotent caches: attribute the steady state only *)
  run ();
  Devil_runtime.Profile.reset profile;
  Devil_runtime.Profile.span profile ("driver:" ^ name) (fun () ->
      for _ = 1 to iters do
        run ()
      done);
  profile

let export ~dir name p =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    path
  in
  let folded =
    write
      (Filename.concat dir (name ^ ".folded"))
      (Devil_runtime.Trace_export.profile_to_folded p)
  in
  let speedscope =
    write
      (Filename.concat dir (name ^ ".speedscope.json"))
      (Devil_runtime.Trace_export.profile_to_speedscope ~name:("devil " ^ name)
         p)
  in
  [ folded; speedscope ]

let print_json ~iters selected =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"suite\": \"devil_pr5_span_profiler\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"iters\": %d,\n" iters);
  Buffer.add_string buf "  \"workloads\": [\n";
  let n_wl = List.length selected in
  List.iteri
    (fun i (name, wl) ->
      let p = workload ~iters name wl in
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": %S, \"root\": %S, \"sites\": [\n" name
           ("driver:" ^ name));
      let sites = Devil_runtime.Profile.sites p in
      let n_sites = List.length sites in
      List.iteri
        (fun j (key, (s : Devil_runtime.Profile.site_stats)) ->
          Buffer.add_string buf
            (Printf.sprintf "      { \"key\": %S, \"calls\": %d }%s\n" key
               s.calls
               (if j = n_sites - 1 then "" else ",")))
        sites;
      Buffer.add_string buf
        (Printf.sprintf "    ] }%s\n" (if i = n_wl - 1 then "" else ","))
      )
    selected;
  Buffer.add_string buf "  ]\n}\n";
  print_string (Buffer.contents buf)

let table ~iters ~out_dir selected =
  Common.section "Span profile: hierarchical latency attribution";
  Format.printf "%-12s %8s %15s %15s %11s@." "workload" "iters" "measured ns/op"
    "modeled ns/op" "attributed";
  List.iter
    (fun (name, wl) ->
      let modeled_ns = Benchjson.modeled_us_per_op wl *. 1e3 in
      let p = workload ~iters name wl in
      let total = Devil_runtime.Profile.total_ns p in
      let attributed = Devil_runtime.Profile.attributed_ns p in
      let pct =
        if total > 0 then 100.0 *. float_of_int attributed /. float_of_int total
        else 100.0
      in
      Format.printf "%-12s %8d %15.1f %15.1f %10.1f%%@." name iters
        (float_of_int total /. float_of_int iters)
        modeled_ns pct;
      let top =
        Devil_runtime.Profile.sites p
        |> List.filter (fun (_, s) -> s.Devil_runtime.Profile.self_ns > 0)
        |> List.sort (fun (_, a) (_, b) ->
               compare b.Devil_runtime.Profile.self_ns
                 a.Devil_runtime.Profile.self_ns)
        |> List.filteri (fun i _ -> i < 8)
      in
      Format.printf "  %-42s %9s %12s %8s %8s %8s@." "top self-time sites"
        "calls" "self ns" "p50" "p95" "p99";
      List.iter
        (fun (key, (s : Devil_runtime.Profile.site_stats)) ->
          Format.printf "  %-42s %9d %12d %8d %8d %8d@." key s.calls s.self_ns
            s.p50_ns s.p95_ns s.p99_ns)
        top;
      (match out_dir with
      | None -> ()
      | Some dir ->
          List.iter (Format.printf "  wrote %s@.") (export ~dir name p));
      Format.printf "@.")
    selected

let run args =
  let json = ref false in
  let iters = ref 100 in
  let out_dir = ref None in
  let names = ref [] in
  let bad fmt =
    Format.kasprintf
      (fun s ->
        Format.eprintf "bench profile: %s@." s;
        usage ();
        exit 1)
      fmt
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | [ "--iters" ] -> bad "--iters needs a value"
    | "--iters" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> iters := n
        | _ -> bad "bad --iters value %S" v);
        parse rest
    | [ "--out" ] -> bad "--out needs a value"
    | "--out" :: dir :: rest ->
        out_dir := Some dir;
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        bad "unknown option %s" arg
    | arg :: rest ->
        names := arg :: !names;
        parse rest
  in
  parse args;
  let selected =
    match List.rev !names with
    | [] -> Benchjson.workloads
    | picks ->
        List.map
          (fun n ->
            match List.assoc_opt n Benchjson.workloads with
            | Some wl -> (n, wl)
            | None -> bad "unknown workload %s" n)
          picks
  in
  if !json then print_json ~iters:!iters selected
  else table ~iters:!iters ~out_dir:!out_dir selected
