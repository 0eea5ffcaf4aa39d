(* The bounded exhaustive exploration stack (DESIGN.md §12): the
   generic engine (enumeration order, prunes, shrinking) on
   synthetic run functions, the Policy decision points it drives, and
   the campaign layer end to end — clean drivers explore clean, and
   the seeded regression is found, shrunk to one decision and
   reproduced byte-identically from its committed tape fixture. *)

module Explore = Devil_runtime.Explore
module Excamp = Explorecamp.Excamp
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Trace_export = Devil_runtime.Trace_export

let case name f = Alcotest.test_case name `Quick f

(* {1 Engine: synthetic run functions}

   The choice alphabet is two opaque tokens; run functions fabricate
   outcomes so every structural property is exact. *)

let choices = [ "a"; "b" ]

let d slot choice = { Explore.slot; choice }

(* Every schedule feasible, every end state distinct, full horizon. *)
let all_distinct sched =
  {
    Explore.oc_ok = true;
    oc_detail = "ok";
    oc_fired = List.length sched;
    oc_state = Hashtbl.hash sched;
    oc_horizon = (fun _ -> max_int);
  }

let collect visited sched _ = visited := sched :: !visited

(* The engine's visit order: lexicographic by decision, each decision
   by (slot, index of its choice in [choices]); a proper prefix sorts
   before its extensions. *)
let compare_schedules a b =
  let idx c =
    let rec go i = function
      | [] -> invalid_arg "choice not in the alphabet"
      | c' :: rest -> if c' = c then i else go (i + 1) rest
    in
    go 0 choices
  in
  let rec go (a : string Explore.schedule) (b : string Explore.schedule) =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: a', y :: b' -> (
        match compare (x.slot, idx x.choice) (y.slot, idx y.choice) with
        | 0 -> go a' b'
        | n -> n)
  in
  go a b

let test_enumeration_count () =
  let r =
    Explore.explore ~depth:3 ~budget:2 ~choices ~run:all_distinct ()
  in
  (* base 1; size-1: 3 slots x 2 choices = 6; size-2: ordered slot
     pairs (0,1) (0,2) (1,2) x 2 x 2 choices = 12. *)
  Alcotest.(check int) "every schedule within the bound runs" 19 r.rp_runs;
  Alcotest.(check int) "all states distinct" 19 r.rp_distinct;
  Alcotest.(check int) "nothing pruned" 0 r.rp_pruned;
  Alcotest.(check int) "nothing infeasible" 0 r.rp_infeasible;
  Alcotest.(check int) "no violations" 0 (List.length r.rp_violations)

let test_enumeration_order () =
  let visited = ref [] in
  ignore
    (Explore.explore ~depth:3 ~budget:2 ~choices ~run:all_distinct
       ~on_run:(collect visited) ());
  let visited = List.rev !visited in
  let rec check = function
    | x :: (y :: _ as rest) ->
        Alcotest.(check bool)
          "visit order is the engine's schedule order" true
          (compare_schedules x y < 0);
        check rest
    | _ -> ()
  in
  check visited;
  (* Prefix-closed: every proper prefix of a visited schedule was
     visited before it. *)
  List.iteri
    (fun i s ->
      match List.rev s with
      | _ :: tl ->
          let prefix = List.rev tl in
          let j =
            Option.get
              (List.find_index (fun v -> v = prefix) visited)
          in
          Alcotest.(check bool) "prefix runs first" true (j < i)
      | [] -> ())
    visited

let test_dedup () =
  let constant_state sched =
    { (all_distinct sched) with Explore.oc_state = 0 }
  in
  let r =
    Explore.explore ~depth:3 ~budget:2 ~choices ~run:constant_state ()
  in
  (* Every size-1 schedule collapses into the base fingerprint, so
     nothing of size 2 is ever attempted. *)
  Alcotest.(check int) "only base + size-1 run" 7 r.rp_runs;
  Alcotest.(check int) "six subtrees deduped" 6 r.rp_deduped;
  Alcotest.(check int) "one distinct state" 1 r.rp_distinct

let test_feasibility_cut () =
  (* Decisions at slot >= 2 never fire (the workload's traffic ends). *)
  let run sched =
    let fired =
      List.length (List.filter (fun x -> x.Explore.slot < 2) sched)
    in
    { (all_distinct sched) with Explore.oc_fired = fired }
  in
  let r = Explore.explore ~depth:3 ~budget:2 ~choices ~run () in
  Alcotest.(check int) "infeasible runs detected" 10 r.rp_infeasible;
  Alcotest.(check int) "infeasible schedules still count as runs" 19
    r.rp_runs

let test_horizon_prune () =
  let run sched =
    { (all_distinct sched) with Explore.oc_horizon = (fun _ -> 1) }
  in
  let r = Explore.explore ~depth:3 ~budget:2 ~choices ~run () in
  (* Only slot 0 is ever offered: base + two size-1 schedules. *)
  Alcotest.(check int) "slots beyond the horizon never run" 3 r.rp_runs;
  Alcotest.(check int) "candidates skipped by the horizon" 12 r.rp_pruned

let test_shrink_to_one_decision () =
  (* Failure cause: an "x" decision at slot >= 5; pads are noise. *)
  let runs = ref 0 in
  let run sched =
    incr runs;
    let causal =
      List.exists
        (fun q -> q.Explore.choice = "x" && q.Explore.slot >= 5)
        sched
    in
    {
      (all_distinct sched) with
      Explore.oc_ok = not causal;
      oc_detail = (if causal then "boom" else "ok");
    }
  in
  let failing = [ d 1 "pad"; d 6 "x"; d 9 "pad" ] in
  let minimized, attempts = Explore.shrink ~run failing in
  Alcotest.(check bool) "pads dropped, slot binary-searched to minimum"
    true
    (minimized = [ d 5 "x" ]);
  Alcotest.(check int) "attempt count reported" !runs attempts

let test_shrink_passing_unchanged () =
  let sched = [ d 0 "a" ] in
  let minimized, _ = Explore.shrink ~run:all_distinct sched in
  Alcotest.(check bool) "a passing schedule is returned unchanged" true
    (minimized = sched)

(* {1 Policy decision points} *)

let test_decider_forces_poll () =
  let ctx =
    Devil_runtime.Ctx.create
      ~decider:(function
        | Devil_runtime.Ctx.Poll_decision { ordinal; _ } -> ordinal = 0
        | _ -> false)
      ()
  in
  Alcotest.(check bool) "ordinal 0 forced to time out" false
    (Policy.try_poll ~ctx ~label:"p" (fun () -> true));
  Alcotest.(check bool) "ordinal 1 runs normally" true
    (Policy.try_poll ~ctx ~label:"p" (fun () -> true));
  Alcotest.(check int) "two poll points consumed" 2 ctx.poll_points

let test_decider_denies_retry () =
  let ctx =
    Devil_runtime.Ctx.create
      ~decider:(function
        | Devil_runtime.Ctx.Retry_decision { ordinal; _ } -> ordinal = 0
        | _ -> false)
      ()
  in
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls = 1 then raise (Fault.Bus_fault "transient once");
    !calls
  in
  let denied =
    match Policy.with_retries ~ctx ~label:"r" flaky with
    | _ -> false
    | exception Policy.Driver_error (Policy.Degraded _) -> true
  in
  Alcotest.(check bool) "the denied retry fails Degraded" true denied;
  Alcotest.(check int) "no re-execution after the denial" 1 !calls;
  Alcotest.(check int) "one retry point consumed" 1 ctx.retry_points;
  (* Without a decider the same operation recovers. *)
  calls := 0;
  Alcotest.(check int) "normal retry recovers" 2
    (Policy.with_retries ~label:"r" flaky)

(* {1 Campaign layer} *)

let small_bound =
  {
    Excamp.default_bound with
    Excamp.b_depth = 2;
    b_budget = 1;
    b_sites = 2;
  }

let explore_clean name =
  let r = Excamp.explore_workload ~bound:small_bound (Excamp.builtin name) in
  Alcotest.(check bool)
    (name ^ ": unfaulted schedule verified")
    true
    (r.Excamp.r_base_verdict = Faultcamp.Campaign.Verified);
  Alcotest.(check int)
    (name ^ ": no violations within the bound")
    0
    (List.length r.Excamp.r_report.Explore.rp_violations);
  Alcotest.(check bool) (name ^ ": the bound was actually explored") true
    (r.Excamp.r_report.Explore.rp_runs > 1)

let test_clean_ide () = explore_clean "ide-read"
let test_clean_gfx () = explore_clean "gfx"

let seeded_bound =
  {
    Excamp.default_bound with
    Excamp.b_depth = 8;
    b_budget = 2;
    b_sites = 1;
    b_policy_axes = false;
  }

let fixture_path = "golden/explore_counterexample.tape.jsonl"

let seeded_result = lazy
  (Excamp.explore_workload ~bound:seeded_bound ~max_violations:1
     Excamp.seeded_bug)

let seeded_cx () =
  match (Lazy.force seeded_result).Excamp.r_counterexamples with
  | [ cx ] -> cx
  | cxs -> Alcotest.failf "expected one counterexample, got %d"
             (List.length cxs)

let test_seeded_bug_found () =
  let r = Lazy.force seeded_result in
  Alcotest.(check bool) "the unfaulted schedule passes" true
    (r.Excamp.r_base_verdict = Faultcamp.Campaign.Verified);
  let cx = seeded_cx () in
  Alcotest.(check bool) "the violation is silent corruption" true
    (String.length cx.Excamp.cx_detail > 0)

let test_seeded_bug_minimized () =
  let cx = seeded_cx () in
  Alcotest.(check int) "shrunk to a single decision" 1
    (List.length cx.Excamp.cx_schedule);
  match cx.Excamp.cx_schedule with
  | [ { Explore.slot; choice = Excamp.Inject { op; addr; _ } } ] ->
      Alcotest.(check int) "the very first covered access" 0 slot;
      Alcotest.(check bool) "a write fault" true (op = Fault.Write);
      Alcotest.(check int) "on the THR data port" 0x3f8 addr
  | s ->
      Alcotest.failf "unexpected minimized schedule: %s"
        (Format.asprintf "%a"
           (Explore.pp_schedule Excamp.pp_choice)
           s)

let test_seeded_bug_tape_matches_fixture () =
  let cx = seeded_cx () in
  match Trace_export.tape_of_file fixture_path with
  | Error why -> Alcotest.failf "fixture unreadable: %s" why
  | Ok fixture ->
      Alcotest.(check string)
        "the minimized tape is byte-identical to the committed fixture"
        (Trace_export.tape_to_jsonl fixture)
        (Trace_export.tape_to_jsonl cx.Excamp.cx_tape)

let test_seeded_bug_replays () =
  let cx = seeded_cx () in
  let r = Excamp.replay_counterexample Excamp.seeded_bug cx in
  Alcotest.(check (option string)) "no divergence" None
    r.Excamp.rr_divergence;
  Alcotest.(check bool) "replay reproduces the tape byte for byte" true
    r.Excamp.rr_tape_identical

let () =
  Alcotest.run "explore"
    [
      ( "engine",
        [
          case "enumeration count" test_enumeration_count;
          case "enumeration order" test_enumeration_order;
          case "state dedup" test_dedup;
          case "feasibility cut" test_feasibility_cut;
          case "horizon prune" test_horizon_prune;
        ] );
      ( "shrink",
        [
          case "to one decision" test_shrink_to_one_decision;
          case "passing unchanged" test_shrink_passing_unchanged;
        ] );
      ( "decider",
        [
          case "forced poll" test_decider_forces_poll;
          case "denied retry" test_decider_denies_retry;
        ] );
      ( "campaign",
        [
          case "ide-read clean" test_clean_ide;
          case "gfx clean" test_clean_gfx;
        ] );
      ( "seeded",
        [
          case "found" test_seeded_bug_found;
          case "minimized" test_seeded_bug_minimized;
          case "tape matches fixture" test_seeded_bug_tape_matches_fixture;
          case "replays byte-identically" test_seeded_bug_replays;
        ] );
    ]
