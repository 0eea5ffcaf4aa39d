(* The exploration campaign: Devil_runtime.Explore instantiated over
   real driver workloads (DESIGN.md §12).

   This layer defines the concrete choice alphabet (fault injections
   at discovered bus sites, forced poll timeouts, denied retries),
   discovers each workload's injection sites from an unfaulted run,
   executes one workload run per schedule on a fresh Machine with a
   schedule-driven Fault injector and a decider of its own, judges every
   run with the Monitor oracle plus the recovery invariants, and turns
   violations into minimized, replayable counterexample tapes. *)

module Explore = Devil_runtime.Explore
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Ctx = Devil_runtime.Ctx
module Trace = Devil_runtime.Trace
module Metrics = Devil_runtime.Metrics
module Bus = Devil_runtime.Bus
module Monitor = Devil_runtime.Monitor
module Trace_export = Devil_runtime.Trace_export
module Instance = Devil_runtime.Instance
module Machine = Drivers.Machine
module Campaign = Faultcamp.Campaign

(* {1 The choice alphabet} *)

type choice =
  | Inject of { addr : int; op : Fault.op; kind : Fault.kind; tag : string }
      (* fault the [slot]-th covered access of (op, addr) *)
  | Poll_timeout  (* force the [slot]-th poll to time out *)
  | Retry_deny  (* deny the [slot]-th retry (fails Degraded) *)

let op_letter = function Fault.Read -> 'r' | Fault.Write -> 'w'

let pp_choice fmt = function
  | Inject { addr; op; tag; _ } ->
      Format.fprintf fmt "%s:%c[%#x]" tag (op_letter op) addr
  | Poll_timeout -> Format.pp_print_string fmt "poll-timeout"
  | Retry_deny -> Format.pp_print_string fmt "retry-deny"

let choice_to_string c = Format.asprintf "%a" pp_choice c

(* Value-corruption kinds can defeat any checksum-free driver, so
   silent data corruption under them is the fault campaign's business
   (its Silent column), not an exploration violation. The invariants
   below demand detection only for adverse decisions — transient
   faults and forced policy outcomes, which drivers are contractually
   able to observe. *)
let kind_adverse = function
  | Fault.Transient _ -> true
  | Fault.Flip_bits _ | Fault.Stuck_bits _ | Fault.Drop_write _
  | Fault.Duplicate_write _ ->
      false

(* {1 Workloads} *)

type workload = {
  w_name : string;
  w_range : int * int;  (* injection window: the device's registers *)
  w_devices : (string * Devil_ir.Ir.device) list;  (* monitor oracle *)
  w_run : Machine.t -> Campaign.verdict;
}

let spec_of = function
  | "ide" -> Devil_specs.Specs.ide ()
  | "piix4" -> Devil_specs.Specs.piix4_ide ()
  | "uart" -> Devil_specs.Specs.uart16550 ()
  | "ne2000" -> Devil_specs.Specs.ne2000 ()
  | "gfx" -> Devil_specs.Specs.permedia2 ()
  | d -> invalid_arg ("Excamp.spec_of: unknown device " ^ d)

let monitor_devices = function
  | "ide-read" | "ide-write" -> [ "ide"; "piix4" ]
  | "serial" -> [ "uart" ]
  | "net" -> [ "ne2000" ]
  | "gfx" -> [ "gfx" ]
  | _ -> []

let builtin name =
  match List.find_opt (fun (n, _, _) -> n = name) Campaign.workloads with
  | None ->
      invalid_arg
        ("Excamp.builtin: unknown workload " ^ name ^ " (have: "
        ^ String.concat ", " (List.map (fun (n, _, _) -> n) Campaign.workloads)
        ^ ")")
  | Some (_, range, run) ->
      {
        w_name = name;
        w_range = range;
        w_devices =
          List.map (fun d -> (d, spec_of d)) (monitor_devices name);
        w_run = run;
      }

(* The seeded regression: a serial transmit loop whose author wrapped
   each write in a blanket exception swallow — the deliberately
   weakened policy of ISSUE 6's acceptance criteria. A transient fault
   on the THR write silently loses a byte; the back-door wire check
   sees it, the driver never does. *)
let seeded_bug_message = "DEVIL-EXPLORE"

let seeded_bug =
  {
    w_name = "uart-swallow";
    w_range = (Machine.uart_base, Machine.uart_base + 7);
    w_devices = [ ("uart", spec_of "uart") ];
    w_run =
      (fun m ->
        String.iter
          (fun ch ->
            (* the bug: a classified fault on the data write is
               swallowed instead of retried or surfaced *)
            try Instance.write_block m.uart_dev "tx_data" [| Char.code ch |]
            with Policy.Driver_error _ | Fault.Bus_fault _ -> ())
          seeded_bug_message;
        let got = Hwsim.Uart16550.take_transmitted m.uart in
        if got = seeded_bug_message then Campaign.Verified
        else
          Campaign.Corrupt
            (Printf.sprintf "wire carried %d of %d bytes" (String.length got)
               (String.length seeded_bug_message)));
  }

(* {1 Bounds} *)

type bound = {
  b_depth : int;  (* covered-access ordinals 0 .. depth-1 per site *)
  b_budget : int;  (* maximum simultaneous decisions *)
  b_sites : int;  (* busiest (op, addr) sites kept per workload *)
  b_kinds : Fault.kind list;  (* probabilities ignored when scheduled *)
  b_policy_axes : bool;  (* include Poll_timeout / Retry_deny *)
}

let default_bound =
  {
    b_depth = 6;
    b_budget = 2;
    b_sites = 3;
    b_kinds = [ Fault.Transient { probability = 1.0 } ];
    b_policy_axes = true;
  }

let pp_bound fmt b =
  Format.fprintf fmt "depth %d, budget %d, %d sites x {%s}%s" b.b_depth
    b.b_budget b.b_sites
    (String.concat ", " (List.map Fault.kind_tag b.b_kinds))
    (if b.b_policy_axes then " + policy axes" else "")

(* {1 Site discovery}

   One unfaulted run under a counting bus wrapper yields the
   (direction, address) traffic histogram; the busiest addresses
   inside the workload's register window become the injection sites.
   Deterministic: ties break on address then direction. *)

let discover_sites w ~max_sites =
  let counts : (Fault.op * int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump op addr n =
    let k = (op, addr) in
    Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let counting (bus : Bus.t) =
    {
      Bus.read =
        (fun ~width ~addr ->
          bump Fault.Read addr 1;
          bus.Bus.read ~width ~addr);
      write =
        (fun ~width ~addr ~value ->
          bump Fault.Write addr 1;
          bus.Bus.write ~width ~addr ~value);
      read_block =
        (fun ~width ~addr ~into ->
          bump Fault.Read addr (Array.length into);
          bus.Bus.read_block ~width ~addr ~into);
      write_block =
        (fun ~width ~addr ~from ->
          bump Fault.Write addr (Array.length from);
          bus.Bus.write_block ~width ~addr ~from);
    }
  in
  let m =
    Machine.create ~wrap_bus:counting ~poll_deadline:Campaign.poll_deadline ()
  in
  let verdict = Campaign.run_workload m w.w_run in
  let first, last = w.w_range in
  let sites =
    Hashtbl.fold
      (fun (op, addr) n acc ->
        if addr >= first && addr <= last then (op, addr, n) :: acc else acc)
      counts []
  in
  let sites =
    List.sort
      (fun (o1, a1, n1) (o2, a2, n2) ->
        match compare n2 n1 with
        | 0 -> ( match compare a1 a2 with 0 -> compare o1 o2 | c -> c)
        | c -> c)
      sites
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  (verdict, take max_sites sites)

let choices_of_sites ~bound sites =
  let injects =
    List.concat_map
      (fun (op, addr, _) ->
        List.filter_map
          (fun kind ->
            let applicable =
              match kind with
              | Fault.Drop_write _ | Fault.Duplicate_write _ ->
                  op = Fault.Write
              | _ -> true
            in
            if applicable then
              Some (Inject { addr; op; kind; tag = Fault.kind_tag kind })
            else None)
          bound.b_kinds)
      sites
  in
  if bound.b_policy_axes then injects @ [ Poll_timeout; Retry_deny ]
  else injects

(* {1 The per-schedule runner} *)

let probe_label op addr = Printf.sprintf "probe:%c%#x" (op_letter op) addr

let inject_label op addr kind =
  Printf.sprintf "%s:%c%#x" (Fault.kind_tag kind) (op_letter op) addr

(* Everything one run produces; the Explore outcome is a projection. *)
type exec = {
  e_ok : bool;
  e_detail : string;
  e_fired : int;
  e_adverse_fired : int;
  e_state : int;
  e_horizon : choice -> int;
  e_monitor : Monitor.violation list;
  e_events : Trace.event list;
  e_tape : Bus.tape option;
  e_health : Devil_runtime.Health.report;
}

let state_fingerprint ~verdict ~trace ~monitor_violations =
  let h = ref (Hashtbl.hash verdict) in
  let mix x = h := ((!h * 131) + Hashtbl.hash_param 64 256 x) land max_int in
  List.iter (fun (e : Trace.event) -> mix e.kind) (Trace.events trace);
  mix (Trace.recorded trace);
  mix monitor_violations;
  !h

(* Run [w] once under [sched]. The bus stack, innermost first:
   raw io-space -> scheduled Fault injector -> recording (when asked)
   -> Bus.observed (trace/metrics), so the trace and tape both carry
   the post-fault values the driver saw. Policy decisions are forced
   by ordinal through the machine's decider. *)
let run_schedule ?(record = false) ?monitor w choices
    (sched : choice Explore.schedule) =
  let injections =
    List.filter_map
      (fun (d : choice Explore.decision) ->
        match d.choice with
        | Inject { addr; op; kind; _ } ->
            Some
              (Fault.injection ~label:(inject_label op addr kind) ~op
                 ~at:d.slot ~first:addr ~last:addr kind)
        | Poll_timeout | Retry_deny -> None)
      sched
  in
  (* Horizon probes: one never-firing injection per distinct site in
     the alphabet, so every run reports each site's traffic count. *)
  let probes =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Inject { addr; op; _ } -> Some (op, addr)
           | Poll_timeout | Retry_deny -> None)
         choices)
    |> List.map (fun (op, addr) ->
           Fault.injection ~label:(probe_label op addr) ~op ~at:max_int
             ~first:addr ~last:addr
             (Fault.Transient { probability = 0.0 }))
  in
  let armed kind =
    List.filter_map
      (fun (d : choice Explore.decision) ->
        if d.choice = kind then Some d.slot else None)
      sched
  in
  let armed_polls = armed Poll_timeout
  and armed_retries = armed Retry_deny in
  let forced_polls = ref 0
  and denied_retries = ref 0 in
  let trace = Trace.create ~capacity:512 () in
  let metrics = Metrics.create () in
  (match monitor with
  | Some mon ->
      Monitor.clear mon;
      Monitor.attach mon trace
  | None -> ());
  let injector = ref None in
  let tape = ref None in
  let wrap_bus raw =
    let inj =
      Fault.scheduled ~sink:trace ~metrics ~injections:(probes @ injections)
        raw
    in
    injector := Some inj;
    let b = Fault.bus inj in
    if record then begin
      let t, b = Bus.recording b in
      tape := Some t;
      b
    end
    else b
  in
  let decider = function
    | Ctx.Poll_decision { ordinal; _ } ->
        if List.mem ordinal armed_polls then begin
          incr forced_polls;
          true
        end
        else false
    | Ctx.Retry_decision { ordinal; _ } ->
        if List.mem ordinal armed_retries then begin
          incr denied_retries;
          true
        end
        else false
  in
  let machine =
    Machine.create ~trace ~metrics ~wrap_bus ~lifecycle:true
      ~poll_deadline:Campaign.poll_deadline ~decider ()
  in
  let result =
    try `Verdict (w.w_run machine)
    with
    | Policy.Driver_error e -> `Verdict (Campaign.Reported (Policy.error_to_string e))
    | Bus.Replay_divergence msg ->
        `Verdict (Campaign.Reported ("replay divergence: " ^ msg))
    | Instance.Device_error msg ->
        `Verdict (Campaign.Reported ("device error: " ^ msg))
    | Failure msg -> `Verdict (Campaign.Reported msg)
    | Fault.Bus_fault msg ->
        (* [Bus_fault] deliberately not funneled into [Reported]: an
           injected fault no policy classified is itself a violation. *)
        `Escape msg
  in
  let polls = machine.ctx.poll_points
  and retries = machine.ctx.retry_points in
  (match monitor with Some mon -> Monitor.finalize mon | None -> ());
  let inj = Option.get !injector in
  let inj_fired = Fault.scheduled_hits inj in
  let fired = inj_fired + !forced_polls + !denied_retries in
  let adverse_fired =
    !forced_polls + !denied_retries
    + List.length
        (List.filter
           (fun (d : choice Explore.decision) ->
             match d.choice with
             | Inject { addr; op; kind; _ } ->
                 kind_adverse kind
                 && Fault.injections_for inj (inject_label op addr kind) > 0
             | Poll_timeout | Retry_deny -> false)
           sched)
  in
  let monitor_violations =
    match monitor with Some mon -> Monitor.violations mon | None -> []
  in
  let verdict_text =
    match result with
    | `Escape msg -> "escape: " ^ msg
    | `Verdict Campaign.Verified -> "verified"
    | `Verdict (Campaign.Corrupt d) -> "corrupt: " ^ d
    | `Verdict (Campaign.Reported d) -> "detected: " ^ d
  in
  let ok, detail =
    match result with
    | `Escape msg ->
        (false, "unclassified Bus_fault escaped the driver: " ^ msg)
    | `Verdict v -> (
        match monitor_violations with
        | mv :: _ ->
            ( false,
              Format.asprintf "%d monitor violation(s), first: %a"
                (List.length monitor_violations) Monitor.pp_violation mv )
        | [] -> (
            match v with
            | Campaign.Verified -> (true, "verified")
            | Campaign.Reported d -> (true, "detected: " ^ d)
            | Campaign.Corrupt d ->
                if fired = 0 then
                  (false, "corrupt on the unfaulted schedule: " ^ d)
                else if adverse_fired > 0 then
                  (false, "silent corruption under an adverse schedule: " ^ d)
                else
                  (* value-fault corruption: the campaign's Silent
                     column, not an exploration violation *)
                  (true, "corrupt under value faults only: " ^ d)))
  in
  let horizon = function
    | Inject { addr; op; _ } -> Fault.seen_for inj (probe_label op addr)
    | Poll_timeout -> polls
    | Retry_deny -> retries
  in
  {
    e_ok = ok;
    e_detail = detail;
    e_fired = fired;
    e_adverse_fired = adverse_fired;
    e_state = state_fingerprint ~verdict:verdict_text ~trace
        ~monitor_violations:(List.length monitor_violations);
    e_horizon = horizon;
    e_monitor = monitor_violations;
    e_events = Trace.events trace;
    e_tape = !tape;
    e_health = Machine.health machine;
  }

let outcome_of_exec (e : exec) : choice Explore.outcome =
  {
    Explore.oc_ok = e.e_ok;
    oc_detail = e.e_detail;
    oc_fired = e.e_fired;
    oc_state = e.e_state;
    oc_horizon = e.e_horizon;
  }

(* {1 Campaign driver} *)

type counterexample = {
  cx_workload : string;
  cx_detail : string;
  cx_found : choice Explore.schedule;  (* as discovered *)
  cx_schedule : choice Explore.schedule;  (* minimized *)
  cx_shrink_runs : int;
  cx_tape : Bus.tape;  (* tape of the minimized schedule *)
  cx_events : Trace.event list;
  cx_health : Devil_runtime.Health.report;  (* of the minimized run *)
}

type result = {
  r_workload : string;
  r_bound : bound;
  r_sites : (Fault.op * int * int) list;  (* op, addr, unfaulted traffic *)
  r_choices : choice list;
  r_base_verdict : Campaign.verdict;
  r_report : choice Explore.report;
  r_counterexamples : counterexample list;
}

let explore_workload ?(bound = default_bound) ?(max_violations = 4) ?on_run w =
  let base_verdict, sites = discover_sites w ~max_sites:bound.b_sites in
  let choices = choices_of_sites ~bound sites in
  let monitor = Monitor.create ~devices:w.w_devices in
  let run sched = outcome_of_exec (run_schedule ~monitor w choices sched) in
  let report =
    if choices = [] then
      (* nothing to explore: run the base schedule alone *)
      Explore.explore ~depth:1 ~budget:0 ~choices:[ Poll_timeout ] ~run
        ?on_run ()
    else
      Explore.explore ~depth:bound.b_depth ~budget:bound.b_budget ~choices
        ~run ~max_violations ?on_run ()
  in
  let counterexamples =
    List.map
      (fun (v : choice Explore.violation) ->
        let shrunk, attempts = Explore.shrink ~run v.vx_schedule in
        let final = run_schedule ~record:true ~monitor w choices shrunk in
        {
          cx_workload = w.w_name;
          cx_detail = final.e_detail;
          cx_found = v.vx_schedule;
          cx_schedule = shrunk;
          cx_shrink_runs = attempts;
          cx_tape = Option.get final.e_tape;
          cx_events = final.e_events;
          cx_health = final.e_health;
        })
      report.Explore.rp_violations
  in
  {
    r_workload = w.w_name;
    r_bound = bound;
    r_sites = sites;
    r_choices = choices;
    r_base_verdict = base_verdict;
    r_report = report;
    r_counterexamples = counterexamples;
  }

(* {1 Counterexample replay}

   A counterexample must reproduce without simulated hardware and
   without an injector: the tape carries every response including the
   faults. Only the policy decisions must be re-armed (a forced
   timeout changes the driver's subsequent traffic, which the tape
   then expects). The replay re-records the replayed bus, so byte
   equality of the two tapes is the reproduction criterion. *)

type replay = {
  rr_verdict : string;  (* driver-visible outcome under replay *)
  rr_tape_identical : bool;  (* re-recorded tape = original, byte for byte *)
  rr_divergence : string option;
}

let replay_counterexample w (cx : counterexample) =
  let armed kind =
    List.filter_map
      (fun (d : choice Explore.decision) ->
        if d.choice = kind then Some d.slot else None)
      cx.cx_schedule
  in
  let armed_polls = armed Poll_timeout
  and armed_retries = armed Retry_deny in
  let decider = function
    | Ctx.Poll_decision { ordinal; _ } -> List.mem ordinal armed_polls
    | Ctx.Retry_decision { ordinal; _ } -> List.mem ordinal armed_retries
  in
  let tape2 = ref None in
  let wrap_bus _raw =
    let t, b = Bus.recording (Bus.replaying cx.cx_tape) in
    tape2 := Some t;
    b
  in
  let divergence = ref None in
  let verdict =
    try
      match
        w.w_run
          (Machine.create ~wrap_bus ~poll_deadline:Campaign.poll_deadline
             ~decider ())
      with
      | Campaign.Verified -> "verified"
      | Campaign.Corrupt d -> "corrupt: " ^ d
      | Campaign.Reported d -> "detected: " ^ d
    with
    | Policy.Driver_error e -> "detected: " ^ Policy.error_to_string e
    | Fault.Bus_fault msg -> "escape: " ^ msg
    | Bus.Replay_divergence msg ->
        divergence := Some msg;
        "replay divergence"
    | Instance.Device_error msg -> "detected: device error: " ^ msg
    | Failure msg -> "detected: " ^ msg
  in
  let identical =
    match !tape2 with
    | None -> false
    | Some t2 ->
        Trace_export.tape_to_jsonl t2 = Trace_export.tape_to_jsonl cx.cx_tape
  in
  {
    rr_verdict = verdict;
    rr_tape_identical = identical && !divergence = None;
    rr_divergence = !divergence;
  }

(* Re-run a schedule live (simulator + scheduled injector) from a tape
   fixture's point of view: given a workload and a schedule, produce
   the tape it records. Used by tests to regenerate fixtures. *)
let record_schedule ?(bound = default_bound) w sched =
  let _, sites = discover_sites w ~max_sites:bound.b_sites in
  let choices = choices_of_sites ~bound sites in
  run_schedule ~record:true w choices sched

(* {1 Reporting} *)

let pp_site fmt (op, addr, n) =
  Format.fprintf fmt "%c[%#x] x%d" (op_letter op) addr n

let pp_result fmt r =
  let rep = r.r_report in
  Format.fprintf fmt
    "@[<v>explore %s: %a@,sites: %a@,runs %d (%d infeasible, %d deduped, %d \
     pruned), %d distinct states@,violations: %d@]"
    r.r_workload pp_bound r.r_bound
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_site)
    r.r_sites rep.Explore.rp_runs rep.Explore.rp_infeasible
    rep.Explore.rp_deduped rep.Explore.rp_pruned rep.Explore.rp_distinct
    (List.length rep.Explore.rp_violations)

let pp_counterexample fmt cx =
  Format.fprintf fmt
    "@[<v>counterexample (%s): %s@,found as: %a@,minimized to: %a (%d shrink \
     runs)@,tape: %d transfers@,health: %s@]"
    cx.cx_workload cx.cx_detail (Explore.pp_schedule pp_choice) cx.cx_found
    (Explore.pp_schedule pp_choice) cx.cx_schedule cx.cx_shrink_runs
    (Bus.tape_length cx.cx_tape)
    (Devil_runtime.Health.summary cx.cx_health)
