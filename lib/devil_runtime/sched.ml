(* The event-driven driver scheduler (DESIGN.md §13): level-triggered
   source sampling, controller acknowledge/dispatch/EOI, per-device
   request queues and a timer wheel over the virtual clock. *)

type controller = {
  ctl_raise : line:int -> unit;
  ctl_ack : unit -> int option;
  ctl_eoi : line:int -> unit;
}

type timer = {
  tm_deadline : int;
  tm_id : int;  (* creation order breaks deadline ties deterministically *)
  tm_fire : unit -> unit;
  tm_wheel : timer list array;  (* the wheel holding it while armed *)
  mutable tm_cancelled : bool;
}

type request = {
  rq_id : int;  (* minted at submit, monotonically increasing, never reused *)
  rq_dev : string;
  rq_label : string;
  rq_timeout : int;
  rq_start : unit -> unit;
  rq_abort : unit -> unit;
  rq_on_done : (unit, Policy.error) result -> unit;
  rq_submitted : int;
  mutable rq_outcome : (unit, Policy.error) result option;
  mutable rq_timer : timer option;
}

type queue = {
  pending : request Queue.t;
  mutable inflight : request option;
  (* The most recent request on this queue that finished by timeout and
     has not yet been matched to a late completion — one timeout
     explains (at most) one late interrupt, so tagging clears it. *)
  mutable last_timeout_rid : int;
}

type source = {
  src_line : int;
  src_dev : string;
  src_asserted : unit -> bool;
  mutable src_high : bool;  (* last sampled level, for edge-only trace events *)
}

(* The wheel: a bucket per [now mod wheel_size]; deadlines further out
   than one revolution just stay in their bucket until their turn
   comes round again — each revisit is one comparison. A bucket holds
   armed timers only: a timer leaves it when it fires or is
   cancelled. *)
let wheel_size = 256
let max_deliveries_per_dispatch = 16

(* The registry's handles, made once per scheduler. *)
type counters = {
  m_ticks : Metrics.Counter.t;
  m_raised : Metrics.Counter.t;
  m_delivered : Metrics.Counter.t;
  m_unhandled : Metrics.Counter.t;
  m_faults : Metrics.Counter.t;
  m_storms : Metrics.Counter.t;
  m_submits : Metrics.Counter.t;
  m_completions : Metrics.Counter.t;
  m_timeouts : Metrics.Counter.t;
  m_handler_errors : Metrics.Counter.t;
  m_depth : Metrics.Histogram.t;
  m_wait : Metrics.Histogram.t;
}

let counters m =
  let c = Metrics.Counter.make m and h = Metrics.Histogram.make m in
  {
    m_ticks = c "sched.ticks";
    m_raised = c "sched.irqs.raised";
    m_delivered = c "sched.irqs.delivered";
    m_unhandled = c "sched.irqs.unhandled";
    m_faults = c "sched.irqs.faults";
    m_storms = c "sched.irqs.storms";
    m_submits = c "sched.submits";
    m_completions = c "sched.completions";
    m_timeouts = c "sched.timeouts";
    m_handler_errors = c "sched.handler_errors";
    m_depth = h "sched.queue.depth";
    m_wait = h "sched.queue.wait_ticks";
  }

(* A line's handler with its policy label and span key built once. *)
type handler = {
  hd_dev : string;
  hd_run : unit -> unit;
  hd_label : string;  (* "irq: <dev>" *)
  hd_key : string;  (* "irq:<dev>" *)
}

type t = {
  ctl : controller;
  ctx : Ctx.t option;
  trace : Trace.t option;
  metrics : counters option;
  profile : Profile.t option;
  mutable sources : source list;  (* registration order *)
  handlers : (int, handler) Hashtbl.t;
  queues : (string, queue) Hashtbl.t;
  mutable tickers : (unit -> unit) list;
  wheel : timer list array;  (* newest first within a bucket *)
  mutable clock : int;
  mutable next_timer_id : int;
  mutable next_rid : int;
  mutable int_high : bool;
}

let create ?ctx ctl =
  let handle f = Option.bind ctx f in
  {
    ctl;
    ctx;
    trace = handle (fun (c : Ctx.t) -> c.trace);
    metrics = Option.map counters (handle (fun (c : Ctx.t) -> c.metrics));
    profile = handle (fun (c : Ctx.t) -> c.profile);
    sources = [];
    handlers = Hashtbl.create 8;
    queues = Hashtbl.create 8;
    tickers = [];
    wheel = Array.make wheel_size [];
    clock = 0;
    next_timer_id = 0;
    next_rid = 1;
    int_high = false;
  }

let incr t counter =
  match t.metrics with None -> () | Some m -> Metrics.Counter.incr (counter m)

let observe t hist v =
  match t.metrics with
  | None -> ()
  | Some m -> Metrics.Histogram.observe (hist m) v

let emit t kind = match t.trace with None -> () | Some tr -> Trace.emit tr kind
let now t = t.clock

(* Runs [f x] on behalf of request [rid], so the Poll/Retry events the
   driver emits meanwhile carry its id; the machine's request cell
   reads 0 again afterwards, however [f] ends. *)
let serving t rid f x =
  match t.ctx with
  | None -> f x
  | Some c -> Ctx.serving c rid f x

let add_source t ~line ~dev asserted =
  t.sources <-
    t.sources
    @ [ { src_line = line; src_dev = dev; src_asserted = asserted; src_high = false } ]

let set_handler t ~line ~dev handler =
  Hashtbl.replace t.handlers line
    {
      hd_dev = dev;
      hd_run = handler;
      hd_label = "irq: " ^ dev;
      hd_key = "irq:" ^ dev;
    }
let note_int t high = t.int_high <- high
let add_ticker t f = t.tickers <- t.tickers @ [ f ]

(* {1 Timers} *)

let after t ~ticks fire =
  let deadline = t.clock + max 1 ticks in
  let tm =
    {
      tm_deadline = deadline;
      tm_id = t.next_timer_id;
      tm_fire = fire;
      tm_wheel = t.wheel;
      tm_cancelled = false;
    }
  in
  t.next_timer_id <- t.next_timer_id + 1;
  let bucket = deadline mod wheel_size in
  t.wheel.(bucket) <- tm :: t.wheel.(bucket);
  tm

let rec without tm = function
  | [] -> []
  | x :: rest -> if x == tm then rest else x :: without tm rest

(* A timer already taken out to fire is in no bucket; the flag still
   stops it if an earlier callback of the same tick cancels it. *)
let cancel tm =
  if not tm.tm_cancelled then begin
    tm.tm_cancelled <- true;
    let bucket = tm.tm_deadline mod wheel_size in
    let timers = tm.tm_wheel.(bucket) in
    if List.memq tm timers then tm.tm_wheel.(bucket) <- without tm timers
  end

let rec any_due clock = function
  | [] -> false
  | tm :: rest -> tm.tm_deadline <= clock || any_due clock rest

let by_deadline a b =
  match compare a.tm_deadline b.tm_deadline with
  | 0 -> compare a.tm_id b.tm_id
  | c -> c

(* A bucket with nothing due costs one scan and allocates nothing. *)
let run_due_timers t =
  let bucket = t.clock mod wheel_size in
  if any_due t.clock t.wheel.(bucket) then begin
    let due, later =
      List.partition (fun tm -> tm.tm_deadline <= t.clock) t.wheel.(bucket)
    in
    t.wheel.(bucket) <- later;
    List.sort by_deadline due
    |> List.iter (fun tm -> if not tm.tm_cancelled then tm.tm_fire ())
  end

let timers t = Array.fold_left (fun n b -> n + List.length b) 0 t.wheel

(* {1 Queues} *)

let queue_of t dev =
  match Hashtbl.find_opt t.queues dev with
  | Some q -> q
  | None ->
      let q =
        { pending = Queue.create (); inflight = None; last_timeout_rid = 0 }
      in
      Hashtbl.add t.queues dev q;
      q

(* The id of [dev]'s in-flight request, 0 when its queue is idle — the
   request an interrupt on [dev]'s line most plausibly answers. *)
let inflight_rid t dev =
  match Hashtbl.find_opt t.queues dev with
  | Some { inflight = Some rq; _ } -> rq.rq_id
  | _ -> 0

let depth t ~dev =
  match Hashtbl.find_opt t.queues dev with
  | None -> 0
  | Some q -> Queue.length q.pending + if q.inflight = None then 0 else 1

let outstanding t =
  Hashtbl.fold
    (fun _ q acc ->
      acc + Queue.length q.pending + if q.inflight = None then 0 else 1)
    t.queues 0

let start rq = Policy.guarded ~label:rq.rq_label rq.rq_start

(* Finishing a request and starting the next are one loop step: the
   queue never sits idle between a completion and the next command's
   setup, which is the overlap a queued driver buys. *)
let rec finish t q (rq : request) outcome =
  (match rq.rq_timer with Some tm -> cancel tm | None -> ());
  rq.rq_timer <- None;
  rq.rq_outcome <- Some outcome;
  q.inflight <- None;
  let ok = match outcome with Ok () -> true | Error _ -> false in
  incr t (fun m -> m.m_completions);
  (match outcome with
  | Error (Policy.Timeout _) ->
      incr t (fun m -> m.m_timeouts);
      q.last_timeout_rid <- rq.rq_id
  | _ -> ());
  observe t (fun m -> m.m_wait) (t.clock - rq.rq_submitted);
  emit t
    (Trace.Queue_completed
       {
         dev = rq.rq_dev;
         label = rq.rq_label;
         depth = depth t ~dev:rq.rq_dev;
         ok;
         rid = rq.rq_id;
       });
  serving t rq.rq_id rq.rq_on_done outcome;
  start_next t q

and start_next t q =
  if q.inflight = None then
    match Queue.take_opt q.pending with
    | None -> ()
    | Some rq ->
        q.inflight <- Some rq;
        rq.rq_timer <-
          Some
            (after t ~ticks:rq.rq_timeout (fun () ->
                 match q.inflight with
                 | Some r when r == rq && r.rq_outcome = None ->
                     (try serving t rq.rq_id rq.rq_abort () with _ -> ());
                     finish t q rq (Error (Policy.Timeout rq.rq_label))
                 | _ -> ()));
        emit t
          (Trace.Queue_started
             { dev = rq.rq_dev; label = rq.rq_label; rid = rq.rq_id });
        try serving t rq.rq_id start rq
        with Policy.Driver_error e -> finish t q rq (Error e)

let submit t ~dev ~label ?timeout ~start ?(abort = Fun.id) ?(on_done = ignore)
    () =
  let timeout =
    match (timeout, t.ctx) with
    | Some n, _ -> max 1 n
    | None, Some c -> c.poll_deadline
    | None, None -> Ctx.default_poll_deadline
  in
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  let rq =
    {
      rq_id = rid;
      rq_dev = dev;
      rq_label = label;
      rq_timeout = timeout;
      rq_start = start;
      rq_abort = abort;
      rq_on_done = on_done;
      rq_submitted = t.clock;
      rq_outcome = None;
      rq_timer = None;
    }
  in
  let q = queue_of t dev in
  Queue.add rq q.pending;
  incr t (fun m -> m.m_submits);
  let d = depth t ~dev in
  observe t (fun m -> m.m_depth) d;
  emit t (Trace.Queue_submitted { dev; label; depth = d; rid });
  start_next t q;
  rq

let request_id rq = rq.rq_id

let complete t ~dev outcome =
  match Hashtbl.find_opt t.queues dev with
  | Some ({ inflight = Some rq; _ } as q) -> finish t q rq outcome
  | Some q ->
      incr t (fun m -> m.m_unhandled);
      emit t (Trace.Queue_late { dev; rid = q.last_timeout_rid });
      q.last_timeout_rid <- 0
  | None ->
      incr t (fun m -> m.m_unhandled);
      emit t (Trace.Queue_late { dev; rid = 0 })

(* {1 The loop} *)

let rec sample_sources t = function
  | [] -> ()
  | src :: rest ->
      let high = src.src_asserted () in
      if high then begin
        if not src.src_high then begin
          incr t (fun m -> m.m_raised);
          match t.trace with
          | None -> ()
          | Some tr ->
              Trace.emit tr
                (Trace.Irq_raised
                   {
                     line = src.src_line;
                     dev = src.src_dev;
                     rid = inflight_rid t src.src_dev;
                   })
        end;
        t.ctl.ctl_raise ~line:src.src_line
      end;
      src.src_high <- high;
      sample_sources t rest

(* One acknowledge/dispatch/EOI exchange. The acknowledge and the EOI
   are (typically) bus traffic, so a fault plan can corrupt or abort
   them: a classified failure on this path fails the device's
   in-flight request; a flipped line number lands in the unhandled
   counter and the level-triggered source re-raises next tick. *)
let deliver_one t =
  match t.ctl.ctl_ack () with
  | None ->
      t.int_high <- false;
      false
  | Some line ->
      incr t (fun m -> m.m_delivered);
      (match Hashtbl.find_opt t.handlers line with
      | None ->
          incr t (fun m -> m.m_unhandled);
          emit t (Trace.Irq_delivered { line; dev = "?"; rid = 0 })
      | Some { hd_dev = dev; hd_run; hd_label; hd_key } ->
          let rid = inflight_rid t dev in
          (match t.trace with
          | None -> ()
          | Some tr -> Trace.emit tr (Trace.Irq_delivered { line; dev; rid }));
          let run () =
            match t.profile with
            | None -> Policy.guarded ~label:hd_label hd_run
            | Some p ->
                Profile.span p hd_key (fun () ->
                    Policy.guarded ~label:hd_label hd_run)
          in
          try serving t rid run ()
          with Policy.Driver_error e -> (
            incr t (fun m -> m.m_handler_errors);
            match Hashtbl.find_opt t.queues dev with
            | Some ({ inflight = Some rq; _ } as q) -> finish t q rq (Error e)
            | _ -> ()));
      t.ctl.ctl_eoi ~line;
      true

let dispatch t =
  sample_sources t t.sources;
  let delivered = ref 0 in
  (try
     while
       t.int_high
       && !delivered < max_deliveries_per_dispatch
       &&
       if deliver_one t then begin
         Stdlib.incr delivered;
         true
       end
       else false
     do
       ()
     done;
     if t.int_high && !delivered >= max_deliveries_per_dispatch then
       incr t (fun m -> m.m_storms)
   with
  | Policy.Driver_error _ | Fault.Bus_fault _ ->
      (* The acknowledge or EOI itself faulted: delivery is lost this
         pass; the level-triggered sources re-raise on the next tick,
         or the pending request's timer classifies the loss. *)
      incr t (fun m -> m.m_faults));
  !delivered

let tick t =
  incr t (fun m -> m.m_ticks);
  ignore (dispatch t);
  t.clock <- t.clock + 1;
  run_due_timers t;
  List.iter (fun f -> f ()) t.tickers

let peek rq = rq.rq_outcome

let await t rq =
  while rq.rq_outcome = None do
    tick t
  done;
  match rq.rq_outcome with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Policy.fail e
  | None -> assert false

let drain t =
  while outstanding t > 0 do
    tick t
  done
