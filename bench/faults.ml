(* {1 Fault-tolerance campaign: drivers under an adversarial bus} *)

let run args =
  let export_dir =
    match args with
    | [] -> None
    | [ "--export"; dir ] when Sys.file_exists dir && Sys.is_directory dir ->
        Some dir
    | [ "--export"; dir ] ->
        Format.eprintf "bench faultcamp: no directory %s@." dir;
        exit 2
    | _ ->
        Format.eprintf "usage: bench faultcamp [--export DIR]@.";
        exit 2
  in
  Common.section "Fault campaign: driver workloads under injected bus faults";
  let report = Faultcamp.Campaign.run ?export_dir () in
  Format.printf "%a@." Faultcamp.Campaign.pp_report report;
  Format.printf
    "Transient faults (aborted accesses) must never corrupt silently: the \
     recovery@.policies retry them with bounded attempts. Silent rows mark \
     data-path faults no@.driver-level check can see — the residue a \
     language-level approach leaves to@.end-to-end integrity checks.@.";
  (* Record/replay spot checks: every faultcamp failure must be
     reproducible from its bus tape alone. One cell per workload,
     under the nastiest fault class, plus the fault-free smoke pair
     the check.sh gate diffs with tracetool. *)
  Format.printf "@.record/replay spot checks (bus-tape determinism):@.";
  List.iter
    (fun driver ->
      let rc =
        Faultcamp.Campaign.record_replay ~fault:"stuck-bits" ~driver ~seed:1 ()
      in
      Format.printf "  %a@." Faultcamp.Campaign.pp_replay_check rc)
    Faultcamp.Campaign.replayable_workloads;
  match export_dir with
  | None -> ()
  | Some dir ->
      let recorded, replayed =
        Faultcamp.Campaign.export_replay_smoke ~dir ~driver:"ide-read" ~seed:1
      in
      Format.printf "@.wrote replay smoke pair: %s / %s@." recorded replayed
