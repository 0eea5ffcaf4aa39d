(* The health/watchdog layer (DESIGN.md §15): turns lifecycle
   aggregates and the existing scheduler/policy/trace counters into a
   thresholded verdict with named reasons, so campaigns and gates can
   ask "is this run healthy?" without re-deriving the answer from raw
   counters each time. *)

type verdict = Ok | Degraded | Stalled

let verdict_label = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Stalled -> "stalled"

let severity = function Ok -> 0 | Degraded -> 1 | Stalled -> 2
let verdict_severity = severity

type reason = { code : string; count : int; detail : string }

type report = {
  verdict : verdict;
  reasons : reason list;
  counters : (string * int) list;
}

(* Each rule names a counter, the verdict its breach implies and a
   human sentence. A rule fires when the observed count exceeds its
   threshold (default 0: any occurrence). [fault.injections] is
   deliberately absent — an injection is the experiment, not the
   symptom; what it breaks shows up in the other counters. *)
type rule = {
  rl_code : string;
  rl_verdict : verdict;
  rl_threshold : int;
  rl_describe : int -> string;
}

let default_rules =
  let n fmt = Printf.sprintf fmt in
  [
    {
      rl_code = "request_timeouts";
      rl_verdict = Stalled;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d queued request(s) timed out" c);
    };
    {
      rl_code = "orphaned_requests";
      rl_verdict = Stalled;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d request(s) submitted but never completed" c);
    };
    {
      rl_code = "irq_storms";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d interrupt storm(s) hit the delivery bound" c);
    };
    {
      rl_code = "unhandled_irqs";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe =
        (fun c -> n "%d interrupt(s)/completion(s) had no taker" c);
    };
    {
      rl_code = "irq_path_faults";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d fault(s) on the acknowledge/EOI path" c);
    };
    {
      rl_code = "handler_errors";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d interrupt handler(s) failed" c);
    };
    {
      rl_code = "retries_exhausted";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe = (fun c -> n "%d retry budget(s) ran out" c);
    };
    {
      rl_code = "lost_interrupts";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe =
        (fun c -> n "%d completion(s) arrived after their request timed out" c);
    };
    {
      rl_code = "spurious_completions";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe =
        (fun c -> n "%d completion(s) matched no outstanding request" c);
    };
    {
      rl_code = "trace_drops";
      rl_verdict = Degraded;
      rl_threshold = 0;
      rl_describe =
        (fun c -> n "%d trace event(s) evicted by the ring bound" c);
    };
  ]

(* The counter each rule reads. Lifecycle-derived codes are also
   backed by metrics counters, but prefer the live lifecycle handle
   when one is given (it sees events even when metrics are off). *)
let observed ?lifecycle ?trace metrics code =
  let m name = match metrics with None -> 0 | Some m -> Metrics.count m name in
  match code with
  | "request_timeouts" -> m "sched.timeouts"
  | "orphaned_requests" -> (
      match lifecycle with
      | Some lc -> Lifecycle.open_requests lc
      | None -> max 0 (m "lifecycle.submitted" - m "lifecycle.completed"))
  | "irq_storms" -> m "sched.irqs.storms"
  | "unhandled_irqs" -> m "sched.irqs.unhandled"
  | "irq_path_faults" -> m "sched.irqs.faults"
  | "handler_errors" -> m "sched.handler_errors"
  | "retries_exhausted" -> m "retry.exhausted"
  | "lost_interrupts" -> (
      match lifecycle with
      | Some lc -> Lifecycle.lost_interrupts lc
      | None -> m "lifecycle.lost_interrupts")
  | "spurious_completions" -> (
      match lifecycle with
      | Some lc -> Lifecycle.spurious_completions lc
      | None -> m "lifecycle.spurious_completions")
  | "trace_drops" -> (
      match trace with
      | Some tr -> Trace.dropped tr
      | None -> m "trace.dropped_events")
  | _ -> 0

let informational = [ "fault.injections"; "sched.submits"; "sched.completions" ]

let evaluate ?(thresholds = []) ?lifecycle ?trace ?metrics () =
  let threshold_of rule =
    match List.assoc_opt rule.rl_code thresholds with
    | Some t -> t
    | None -> rule.rl_threshold
  in
  let counts =
    List.map
      (fun rule -> (rule, observed ?lifecycle ?trace metrics rule.rl_code))
      default_rules
  in
  let reasons =
    List.filter_map
      (fun (rule, count) ->
        if count > threshold_of rule then
          Some
            ( rule.rl_verdict,
              { code = rule.rl_code; count; detail = rule.rl_describe count } )
        else None)
      counts
  in
  let verdict =
    List.fold_left
      (fun acc (v, _) -> if severity v > severity acc then v else acc)
      Ok reasons
  in
  (* Stalled reasons first, then by rule order. *)
  let reasons =
    List.stable_sort
      (fun (a, _) (b, _) -> compare (severity b) (severity a))
      reasons
    |> List.map snd
  in
  let counters =
    List.map (fun (rule, count) -> (rule.rl_code, count)) counts
    @ List.filter_map
        (fun name ->
          match metrics with
          | None -> None
          | Some m -> Some (name, Metrics.count m name))
        informational
  in
  { verdict; reasons; counters }

let is_ok r = r.verdict = Ok

(* {1 JSON} *)

let to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"verdict\":\"%s\",\"reasons\":[" (verdict_label r.verdict));
  List.iteri
    (fun i reason ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"code\":\"%s\",\"count\":%d,\"detail\":\"%s\"}"
           (Metrics.json_escape reason.code)
           reason.count
           (Metrics.json_escape reason.detail)))
    r.reasons;
  Buffer.add_string b "],\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d" (Metrics.json_escape name) v))
    r.counters;
  Buffer.add_string b "}}";
  Buffer.contents b

let summary r =
  match r.reasons with
  | [] -> verdict_label r.verdict
  | reasons ->
      Printf.sprintf "%s (%s)" (verdict_label r.verdict)
        (String.concat ", "
           (List.map (fun x -> Printf.sprintf "%s=%d" x.code x.count) reasons))

let pp fmt r =
  Format.fprintf fmt "health: %s" (verdict_label r.verdict);
  List.iter
    (fun reason -> Format.fprintf fmt "@.  - %s: %s" reason.code reason.detail)
    r.reasons
