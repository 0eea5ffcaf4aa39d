(* {1 The generated harness battery (DESIGN.md §14)} *)

let usage () =
  Format.eprintf
    "usage: bench harness [--qcount N] [--threshold PCT] [--missed]@.";
  exit 1

let run args =
  let qcount = ref 10 in
  let threshold = ref 90.0 in
  let missed = ref false in
  let bad fmt =
    Format.kasprintf
      (fun s ->
        Format.eprintf "bench harness: %s@." s;
        usage ())
      fmt
  in
  let rec parse = function
    | [] -> ()
    | [ ("--qcount" | "--threshold") as o ] -> bad "option %s needs a value" o
    | "--qcount" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n > 0 ->
            qcount := n;
            parse rest
        | _ -> bad "bad --qcount value %S" v)
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 100.0 ->
            threshold := p;
            parse rest
        | _ -> bad "bad --threshold value %S" v)
    | "--missed" :: rest ->
        missed := true;
        parse rest
    | arg :: _ -> bad "unknown argument %s" arg
  in
  parse args;
  Common.section "Generated per-spec harness battery";
  Format.printf
    "Every battery below is derived from the compiled IR and its site \
     universe@.(Devil_ir.Sites) — zero per-spec harness code.@.@.";
  let reports = Specharness.Battery.run_all ~qcount:!qcount () in
  let failures =
    List.filter_map
      (fun r ->
        Format.printf "%a@." Specharness.Battery.pp_report r;
        if !missed then
          Format.printf "%a"
            Devil_runtime.Coverage.pp_missed
            r.Specharness.Battery.bt_coverage;
        match Specharness.Battery.gate ~threshold:!threshold r with
        | Ok () -> None
        | Error e -> Some e)
      reports
  in
  Format.printf "@.";
  if failures = [] then begin
    Format.printf
      "harness: %d specs, all register-coverage gates >= %.1f%%, zero \
       divergences, zero fault violations@."
      (List.length reports) !threshold;
    exit 0
  end
  else begin
    List.iter (fun e -> Format.printf "harness FAIL: %s@." e) failures;
    exit 1
  end
