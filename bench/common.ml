(* What the bench suites share: the section banner, health reports as
   rows, and the in-run invariants that are not rows (bytes checked
   against ground truth, requests leaked on a queue), collected until
   the suite finishes. *)

let section title = Format.printf "@.=== %s ===@.@." title

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let verify ~row ~what expected got =
  if not (Bytes.equal expected got) then fail "%s: %s differs from ground truth" row what

(* A health report as rows: the number of firing reasons (0 iff the
   verdict is ok) and every counter the verdict read. *)
let health_rows workload (h : Devil_runtime.Health.report) =
  Benchrow.row workload "e2e" "health.reasons" "count"
    (float_of_int (List.length h.reasons))
  :: List.map
       (fun (name, v) ->
         Benchrow.row workload "e2e" ("health." ^ name) "count" (float_of_int v))
       h.counters

(* Writes the artifact, then evaluates the suite's gates over the same
   rows — the check [tools/benchcheck] repeats offline — and exits 1
   when a gate or an in-run invariant failed. *)
let finish (suite : Benchrow.suite) ~out rows =
  Benchrow.write out ~suite:suite.name rows;
  Format.printf "@.wrote %s (%d rows)@." out (List.length rows);
  let violations = Benchrow.check suite rows @ List.rev !failures in
  failures := [];
  List.iter (Format.eprintf "bench %s: %s@." suite.name) violations;
  if violations <> [] then exit 1
