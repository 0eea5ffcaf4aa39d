(* {1 bench explore: bounded exhaustive exploration}

   Enumerates every fault/policy schedule of each selected workload
   within the bound, reporting schedules/s and violations (exit 1 on
   any). [--seeded-bug] runs the deliberately weakened serial workload
   through the full find -> shrink -> tape pipeline instead:
   [--pin] prints the minimized counterexample tape JSONL (the fixture
   generator), [--fixture F] checks the pipeline still reproduces the
   committed fixture byte for byte and that the fixture replays. *)

module Excamp = Explorecamp.Excamp

let usage () =
  Format.eprintf
    "usage: bench explore [--driver D]... [--depth N] [--budget N] [--sites \
     N]@.                     [--no-policy] [--max-violations N] [--out \
     DIR]@.       bench explore --seeded-bug [--pin | --fixture FILE]@.  \
     drivers: %s (default: ide-read gfx)@."
    (String.concat " " Faultcamp.Campaign.driver_workloads)

let write_counterexample ~out name i cx =
  match out with
  | None -> ()
  | Some dir ->
      let base = Filename.concat dir (Printf.sprintf "%s-cx%d" name i) in
      let tape_path = base ^ ".tape.jsonl" in
      Devil_runtime.Trace_export.write_file tape_path
        (Devil_runtime.Trace_export.tape_to_jsonl cx.Excamp.cx_tape);
      Devil_runtime.Trace_export.write_file (base ^ ".trace.jsonl")
        (Devil_runtime.Trace_export.events_to_jsonl cx.Excamp.cx_events);
      Format.printf "  wrote %s@." tape_path

let one ~bound ~max_violations ~out name =
  let w = Excamp.builtin name in
  let t0 = Sys.time () in
  let r = Excamp.explore_workload ~bound ~max_violations w in
  let dt = Sys.time () -. t0 in
  let runs = r.Excamp.r_report.Devil_runtime.Explore.rp_runs in
  Format.printf "%a@." Excamp.pp_result r;
  Format.printf "  %d schedules in %.2fs (%.0f schedules/s)@." runs dt
    (if dt > 0. then float_of_int runs /. dt else 0.);
  List.iteri
    (fun i cx ->
      Format.printf "%a@." Excamp.pp_counterexample cx;
      write_counterexample ~out name i cx)
    r.Excamp.r_counterexamples;
  Format.printf "@.";
  List.length r.Excamp.r_counterexamples

(* The seeded-bug bound: one site (the THR), transient faults only —
   the schedule space the acceptance criteria name. *)
let seeded_bound =
  {
    Excamp.default_bound with
    Excamp.b_depth = 8;
    b_budget = 2;
    b_sites = 1;
    b_policy_axes = false;
  }

let seeded_bug_cx () =
  let r = Excamp.explore_workload ~bound:seeded_bound ~max_violations:1
      Excamp.seeded_bug
  in
  match r.Excamp.r_counterexamples with
  | cx :: _ -> (r, cx)
  | [] ->
      Format.eprintf
        "bench explore: the seeded regression was NOT found within %a@."
        Excamp.pp_bound seeded_bound;
      exit 1

let run_seeded ~pin ~fixture ~out =
  let r, cx = seeded_bug_cx () in
  let jsonl = Devil_runtime.Trace_export.tape_to_jsonl cx.Excamp.cx_tape in
  if pin then begin
    (* fixture generator: nothing but the tape on stdout *)
    print_string jsonl;
    0
  end
  else begin
    Format.printf "%a@.%a@." Excamp.pp_result r Excamp.pp_counterexample cx;
    write_counterexample ~out "seeded-bug" 0 cx;
    let failed = ref false in
    (match fixture with
    | None -> ()
    | Some path -> (
        match Devil_runtime.Trace_export.tape_of_file path with
        | Error why ->
            Format.printf "FAIL: fixture %s unreadable: %s@." path why;
            failed := true
        | Ok tape ->
            if Devil_runtime.Trace_export.tape_to_jsonl tape <> jsonl then begin
              Format.printf
                "FAIL: minimized tape differs from the committed fixture %s@."
                path;
              failed := true
            end
            else
              Format.printf "ok: minimized tape matches the fixture %s@." path));
    let rr = Excamp.replay_counterexample Excamp.seeded_bug cx in
    if rr.Excamp.rr_tape_identical then
      Format.printf "ok: replayed byte-identically (replay verdict: %s)@."
        rr.Excamp.rr_verdict
    else begin
      Format.printf "FAIL: replay diverged: %s@."
        (Option.value ~default:"re-recorded tape differs"
           rr.Excamp.rr_divergence);
      failed := true
    end;
    if !failed then 1 else 0
  end

let run args =
  let drivers = ref [] in
  let bound = ref Excamp.default_bound in
  let max_violations = ref 4 in
  let out = ref None in
  let seeded = ref false in
  let pin = ref false in
  let fixture = ref None in
  let bad fmt =
    Format.kasprintf
      (fun s ->
        Format.eprintf "bench explore: %s@." s;
        usage ();
        exit 1)
      fmt
  in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n when n > 0 -> k n
    | _ -> bad "bad %s value %S" name v
  in
  let rec parse = function
    | [] -> ()
    | [ ("--driver" | "--depth" | "--budget" | "--sites" | "--max-violations"
        | "--out" | "--fixture" as o) ] ->
        bad "option %s needs a value" o
    | "--driver" :: d :: rest ->
        if not (List.mem d Faultcamp.Campaign.driver_workloads) then
          bad "unknown driver %s" d;
        drivers := d :: !drivers;
        parse rest
    | "--depth" :: v :: rest ->
        int_arg "--depth" v (fun n -> bound := { !bound with Excamp.b_depth = n });
        parse rest
    | "--budget" :: v :: rest ->
        int_arg "--budget" v (fun n -> bound := { !bound with Excamp.b_budget = n });
        parse rest
    | "--sites" :: v :: rest ->
        int_arg "--sites" v (fun n -> bound := { !bound with Excamp.b_sites = n });
        parse rest
    | "--max-violations" :: v :: rest ->
        int_arg "--max-violations" v (fun n -> max_violations := n);
        parse rest
    | "--no-policy" :: rest ->
        bound := { !bound with Excamp.b_policy_axes = false };
        parse rest
    | "--out" :: dir :: rest ->
        out := Some dir;
        parse rest
    | "--seeded-bug" :: rest ->
        seeded := true;
        parse rest
    | "--pin" :: rest ->
        pin := true;
        parse rest
    | "--fixture" :: f :: rest ->
        fixture := Some f;
        parse rest
    | arg :: _ -> bad "unknown argument %s" arg
  in
  parse args;
  (match !out with
  | Some dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  | None -> ());
  let code =
    if !seeded then run_seeded ~pin:!pin ~fixture:!fixture ~out:!out
    else begin
      let drivers =
        match List.rev !drivers with [] -> [ "ide-read"; "gfx" ] | ds -> ds
      in
      let violations =
        List.fold_left
          (fun n d ->
            n
            + one ~bound:!bound ~max_violations:!max_violations
                ~out:!out d)
          0 drivers
      in
      if violations = 0 then begin
        Format.printf "explore: zero violations within the stated bound@.";
        0
      end
      else begin
        Format.printf "explore: %d violation(s) found@." violations;
        1
      end
    end
  in
  exit code
