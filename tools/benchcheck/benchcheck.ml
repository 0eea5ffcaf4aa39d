(* Offline validator and regression gate for the benchmark artifacts
   (BENCH_*.json, DESIGN.md §17).

   Usage:
     benchcheck FILE...
     benchcheck compare OLD.json NEW.json [--max-regression PCT]

   The first form reads each FILE as a row artifact and evaluates the
   gates its suite declares — the same Benchrow.check the suite ran
   in-run — so a committed artifact stays checked against today's
   gates.

   [compare] is the perf-regression gate: for every row of the same
   suite and key in both files whose unit is a time (ns, us, ticks),
   fail when NEW exceeds OLD by more than PCT percent (default 10).
   Config rows, null values and zero baselines are skipped; at least
   one comparable row is required.

   Exit codes: 0 ok, 1 failed gate or malformed artifact, 2 usage. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let read path =
  match Benchrow.read path with Ok a -> a | Error m -> bad "%s" m

let check_file path =
  let suite_name, rows = read path in
  match
    List.find_opt
      (fun (s : Benchrow.suite) -> s.name = suite_name)
      Bench_suites.Suites.all
  with
  | None -> bad "unknown suite %S" suite_name
  | Some suite -> (
      match Benchrow.check suite rows with
      | [] ->
          Printf.printf "%s: ok (%s, %d rows, %d gates)\n" path suite_name
            (List.length rows) (List.length suite.gates)
      | violations -> bad "%s" (String.concat "\n  " violations))

let compare_files ~old_path ~new_path ~max_pct =
  let old_suite, olds = read old_path and new_suite, news = read new_path in
  let shared =
    if old_suite <> new_suite then []
    else
      List.filter_map
        (fun (o : Benchrow.row) ->
          match
            List.find_opt (fun (n : Benchrow.row) -> Benchrow.key n = Benchrow.key o) news
          with
          | Some { value = Some nv; _ }
            when o.layer <> "config" && List.mem o.unit Benchrow.time_units -> (
              match o.value with
              | Some ov when ov > 0.0 -> Some (o, ov, nv)
              | _ -> None)
          | _ -> None)
        olds
  in
  if shared = [] then bad "no row of %s has a comparable time in both files" new_suite;
  Printf.printf "%-44s %5s %12s %12s %9s\n" "row" "unit" "old" "new" "delta";
  let regressions =
    List.fold_left
      (fun acc ((o : Benchrow.row), ov, nv) ->
        let regressed = nv > ov *. (1.0 +. (max_pct /. 100.0)) in
        Printf.printf "%-44s %5s %12.1f %12.1f %+8.1f%%%s\n"
          (Benchrow.key_to_string (Benchrow.key o))
          o.unit ov nv
          (100.0 *. (nv -. ov) /. ov)
          (if regressed then "  REGRESSED" else "");
        if regressed then acc + 1 else acc)
      0 shared
  in
  if regressions > 0 then begin
    Printf.eprintf "%d row(s) regressed by more than %.1f%% (%s -> %s)\n"
      regressions max_pct old_path new_path;
    exit 1
  end;
  Printf.printf "ok: %d row(s) within %.1f%% of %s\n" (List.length shared)
    max_pct old_path

let usage () =
  prerr_endline "usage: benchcheck FILE...";
  prerr_endline "       benchcheck compare OLD.json NEW.json [--max-regression PCT]";
  exit 2

let checked path f =
  try
    f ();
    true
  with Bad m ->
    Printf.eprintf "%s: invalid benchmark artifact: %s\n" path m;
    false

let () =
  let is_option = String.starts_with ~prefix:"-" in
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
      let rec parse pct files = function
        | [] -> (pct, List.rev files)
        | "--max-regression" :: v :: tl -> (
            match float_of_string_opt v with
            | Some p when p >= 0.0 -> parse p files tl
            | _ -> usage ())
        | a :: _ when is_option a -> usage ()
        | a :: tl -> parse pct (a :: files) tl
      in
      match parse 10.0 [] rest with
      | max_pct, [ old_path; new_path ] ->
          if not (checked new_path (fun () -> compare_files ~old_path ~new_path ~max_pct))
          then exit 1
      | _ -> usage ())
  | [] -> usage ()
  | paths when List.exists is_option paths -> usage ()
  | paths ->
      let ok = List.map (fun path -> checked path (fun () -> check_file path)) paths in
      if List.mem false ok then exit 1
