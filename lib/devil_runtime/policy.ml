type error =
  | Timeout of string
  | Device_fault of string
  | Bus_fault of string
  | Degraded of string

exception Driver_error of error

let error_to_string = function
  | Timeout m -> "timeout: " ^ m
  | Device_fault m -> "device fault: " ^ m
  | Bus_fault m -> "bus fault: " ^ m
  | Degraded m -> "degraded: " ^ m

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)
let fail e = raise (Driver_error e)

let poll_deadline = ref 1_000_000
let default_deadline () = !poll_deadline
let set_default_deadline n = if n > 0 then poll_deadline := n
let default_attempts = 3

(* {1 Observability}

   The combinators are plain functions with no per-driver state, so
   the observability hook is a module-level observer installed by
   whoever owns the trace/metrics handles (Machine.create, a test, a
   campaign trial). With no observer installed the hooks are two ref
   reads and two option matches — no allocation. *)

let trace_hook : Trace.t option ref = ref None
let metrics_hook : Metrics.t option ref = ref None
let profile_hook : Profile.t option ref = ref None

let observe ?trace ?metrics ?profile () =
  trace_hook := trace;
  metrics_hook := metrics;
  profile_hook := profile

let unobserve () =
  trace_hook := None;
  metrics_hook := None;
  profile_hook := None

(* {1 Request attribution}

   The scheduler parks the id of the queued request it is currently
   serving here (around the request's start thunk, its interrupt
   handler and its timeout abort), so the Poll/Retry trace events the
   combinators emit on that request's behalf carry its id and the
   lifecycle layer can attribute them. 0 means "no queued request" —
   synchronous drivers never see a non-zero id. A bare int ref: the
   disabled path costs one immediate store, no allocation. *)

let request_hook = ref 0
let set_current_request rid = request_hook := if rid > 0 then rid else 0
let current_request () = !request_hook

(* {1 Exploration decision points}

   Every poll completion and every retry is a branch point the
   exploration engine can force down its failure edge: a poll can time
   out even though the device would have answered, a retry can be
   denied even though the budget remains. The decider sees each branch
   point with a per-kind ordinal (0-based, counted from the last
   [set_decider]/[reset_decision_points]) and answers [true] to force
   the adverse outcome. Forced outcomes stay inside the classified
   error vocabulary: a forced poll behaves as an ordinary timeout, a
   denied retry fails [Degraded] — so exploration never teaches
   drivers a new failure shape, it only schedules the existing ones. *)

type decision =
  | Poll_decision of { label : string; ordinal : int }
  | Retry_decision of { label : string; attempt : int; ordinal : int }

let decider_hook : (decision -> bool) option ref = ref None
let poll_ix = ref 0
let retry_ix = ref 0

let reset_decision_points () =
  poll_ix := 0;
  retry_ix := 0

let set_decider f =
  decider_hook := Some f;
  reset_decision_points ()

let clear_decider () = decider_hook := None
let poll_points () = !poll_ix
let retry_points () = !retry_ix

let is_transient = function
  | Fault.Bus_fault _ -> true
  | Driver_error (Bus_fault _ | Device_fault _) -> true
  | _ -> false

let describe_exn = function
  | Driver_error e -> error_to_string e
  | Fault.Bus_fault m -> "bus fault: " ^ m
  | Instance.Device_error m -> "device error: " ^ m
  | e -> Printexc.to_string e

let with_retries ?attempts ?(retry_on = is_transient)
    ?(on_retry = fun ~attempt:_ _ -> ()) ~label f =
  let attempts =
    max 1 (match attempts with Some n -> n | None -> default_attempts)
  in
  let rec go attempt =
    try f ()
    with e when retry_on e ->
      if attempt >= attempts then begin
        (match !metrics_hook with
        | Some m -> Metrics.incr m "retry.exhausted"
        | None -> ());
        fail
          (Degraded
             (Printf.sprintf "%s: gave up after %d attempts (last: %s)" label
                attempts (describe_exn e)))
      end
      else begin
        let denied =
          match !decider_hook with
          | None -> false
          | Some d ->
              let ordinal = !retry_ix in
              incr retry_ix;
              d (Retry_decision { label; attempt; ordinal })
        in
        if denied then begin
          (match !metrics_hook with
          | Some m ->
              Metrics.incr m "retry.denied";
              Metrics.incr m "retry.exhausted"
          | None -> ());
          fail
            (Degraded
               (Printf.sprintf "%s: retry denied after attempt %d (last: %s)"
                  label attempt (describe_exn e)))
        end
        else begin
          (match !metrics_hook with
          | Some m -> Metrics.incr m "retry.attempts"
          | None -> ());
          (match !trace_hook with
          | Some tr ->
              Trace.emit tr
                (Trace.Retry
                   { label; attempt; reason = describe_exn e;
                     rid = !request_hook })
          | None -> ());
          on_retry ~attempt e;
          go (attempt + 1)
        end
      end
  in
  match !profile_hook with
  | None -> go 1
  | Some p -> Profile.span p ("retry:" ^ label) (fun () -> go 1)

let no_backoff (_ : int) = 0
let linear_backoff step i = max 0 (step * i)

let exponential_backoff ?(base = 1) ?(cap = 1024) i =
  min cap (max 1 base * (1 lsl min i 20))

(* The shared poll core: iteration [i] costs [1 + backoff i] ticks, so
   the condition runs at most [deadline] times and the loop provably
   terminates within the budget. Every completed poll reports its
   condition-evaluation count to the observer. *)
let poll_core ?deadline ?(backoff = no_backoff) ~label cond =
  let deadline =
    match deadline with Some d -> d | None -> !poll_deadline
  in
  let forced =
    match !decider_hook with
    | None -> false
    | Some d ->
        let ordinal = !poll_ix in
        incr poll_ix;
        d (Poll_decision { label; ordinal })
  in
  let rec go i spent =
    if spent >= deadline then (false, i)
    else if cond () then (true, i + 1)
    else go (i + 1) (spent + 1 + max 0 (backoff i))
  in
  let ok, iters =
    if forced then (false, 0)
    else
      match !profile_hook with
      | None -> go 0 0
      | Some p -> Profile.span p ("poll:" ^ label) (fun () -> go 0 0)
  in
  (match !metrics_hook with
  | Some m ->
      Metrics.incr m "poll.runs";
      Metrics.incr m ~by:iters "poll.ticks";
      if not ok then Metrics.incr m "poll.timeouts";
      if forced then Metrics.incr m "poll.forced";
      Metrics.observe m "poll.iters" iters
  | None -> ());
  (match !trace_hook with
  | Some tr ->
      Trace.emit tr (Trace.Poll { label; iters; ok; rid = !request_hook })
  | None -> ());
  ok

let try_poll ?deadline ?backoff ?(label = "try_poll") cond =
  poll_core ?deadline ?backoff ~label cond

let poll_until ?deadline ?backoff ~label cond =
  if not (poll_core ?deadline ?backoff ~label cond) then fail (Timeout label)

let try_poll_for ?deadline ?backoff ?(label = "try_poll_for") f =
  let result = ref None in
  ignore
    (poll_core ?deadline ?backoff ~label (fun () ->
         match f () with
         | Some v ->
             result := Some v;
             true
         | None -> false));
  !result

let poll_for ?deadline ?backoff ~label f =
  match try_poll_for ?deadline ?backoff ~label f with
  | Some v -> v
  | None -> fail (Timeout label)

let guarded ~label f =
  try f () with
  | Driver_error _ as e -> raise e
  | Fault.Bus_fault m -> fail (Bus_fault (label ^ ": " ^ m))
  | Instance.Device_error m -> fail (Device_fault (label ^ ": " ^ m))
  | Failure m -> fail (Device_fault (label ^ ": " ^ m))
