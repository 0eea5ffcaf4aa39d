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
let default_attempts = 3
let unobserve () = ()

(* {1 Observability}

   The combinators are plain functions with no state of their own:
   whatever they report goes to the context the caller passes, which a
   Devil driver takes from its instance. Without one the hooks are
   option matches and nothing is allocated. *)

let trace_of = function Some (c : Ctx.t) -> c.trace | None -> None
let metrics_of = function Some (c : Ctx.t) -> c.metrics | None -> None
let profile_of = function Some (c : Ctx.t) -> c.profile | None -> None
let rid_of = function Some (c : Ctx.t) -> c.rid | None -> 0

let is_transient = function
  | Fault.Bus_fault _ -> true
  | Driver_error (Bus_fault _ | Device_fault _) -> true
  | _ -> false

let describe_exn = function
  | Driver_error e -> error_to_string e
  | Fault.Bus_fault m -> "bus fault: " ^ m
  | Instance.Device_error m -> "device error: " ^ m
  | e -> Printexc.to_string e

let with_retries ?ctx ?attempts ~label f =
  let attempts =
    max 1 (match attempts with Some n -> n | None -> default_attempts)
  in
  let rec go attempt =
    try f ()
    with e when is_transient e ->
      if attempt >= attempts then begin
        (match metrics_of ctx with
        | Some m -> Metrics.incr m "retry.exhausted"
        | None -> ());
        fail
          (Degraded
             (Printf.sprintf "%s: gave up after %d attempts (last: %s)" label
                attempts (describe_exn e)))
      end
      else begin
        let denied =
          match ctx with
          | None -> false
          | Some c -> Ctx.decide_retry c ~label ~attempt
        in
        if denied then begin
          (match metrics_of ctx with
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
          (match metrics_of ctx with
          | Some m -> Metrics.incr m "retry.attempts"
          | None -> ());
          (match trace_of ctx with
          | Some tr ->
              let reason = describe_exn e in
              Trace.emit tr
                (Trace.Retry { label; attempt; reason; rid = rid_of ctx })
          | None -> ());
          go (attempt + 1)
        end
      end
  in
  match profile_of ctx with
  | None -> go 1
  | Some p -> Profile.span p ("retry:" ^ label) (fun () -> go 1)

(* The shared poll core: each iteration costs one tick, so the
   condition runs at most [deadline] times and the loop provably
   terminates within the budget. Every completed poll reports its
   condition-evaluation count to the context. *)
let poll_core ?ctx ?deadline ~label cond =
  let deadline =
    match (deadline, ctx) with
    | Some d, _ -> d
    | None, Some (c : Ctx.t) -> c.poll_deadline
    | None, None -> Ctx.default_poll_deadline
  in
  let forced =
    match ctx with None -> false | Some c -> Ctx.decide_poll c ~label
  in
  let rec go i =
    if i >= deadline then (false, i)
    else if cond () then (true, i + 1)
    else go (i + 1)
  in
  let ok, iters =
    if forced then (false, 0)
    else
      match profile_of ctx with
      | None -> go 0
      | Some p -> Profile.span p ("poll:" ^ label) (fun () -> go 0)
  in
  (match metrics_of ctx with
  | Some m ->
      Metrics.incr m "poll.runs";
      Metrics.incr m ~by:iters "poll.ticks";
      if not ok then Metrics.incr m "poll.timeouts";
      if forced then Metrics.incr m "poll.forced";
      Metrics.observe m "poll.iters" iters
  | None -> ());
  (match trace_of ctx with
  | Some tr -> Trace.emit tr (Trace.Poll { label; iters; ok; rid = rid_of ctx })
  | None -> ());
  ok

let try_poll ?ctx ?deadline ?(label = "try_poll") cond =
  poll_core ?ctx ?deadline ~label cond

let poll_until ?ctx ?deadline ~label cond =
  if not (poll_core ?ctx ?deadline ~label cond) then fail (Timeout label)

let try_poll_for ?ctx ?deadline ?(label = "try_poll_for") f =
  let result = ref None in
  ignore
    (poll_core ?ctx ?deadline ~label (fun () ->
         match f () with
         | Some v ->
             result := Some v;
             true
         | None -> false));
  !result

let guarded ~label f =
  try f () with
  | Driver_error _ as e -> raise e
  | Fault.Bus_fault m -> fail (Bus_fault (label ^ ": " ^ m))
  | Instance.Device_error m -> fail (Device_fault (label ^ ": " ^ m))
  | Failure m -> fail (Device_fault (label ^ ": " ^ m))
