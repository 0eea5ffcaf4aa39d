(* Online reconstruction of queued-request lifecycles from the trace
   stream (DESIGN.md §15). One subscriber walks the flat event stream
   and, keyed by the request id {!Sched} threads through every event a
   request causes, rebuilds each request's causal arc:

     submitted --queue_wait--> started --service--> completed
                  (irq_raised --irq_delivery--> irq_delivered
                               --completion--> completed)

   Stage boundaries are stamped with a caller-supplied clock (the
   default is the monotonic wall clock in nanoseconds; offline
   replays feed a synthetic clock), and each completed stage feeds a
   [lifecycle.<dev>.<stage>.<unit>] histogram ([ns] on the default
   clock, [ticks] on any other) when a metrics registry is
   attached. *)

type record = {
  rid : int;
  dev : string;
  label : string;
  submitted_at : int;
  mutable started_at : int;  (* -1 until the stage boundary is seen *)
  mutable irq_raised_at : int;
  mutable irq_delivered_at : int;
  mutable completed_at : int;
  mutable ok : bool;
  mutable polls : int;
  mutable retries : int;
  mutable late_completion : bool;
}

type stage = Queue_wait | Service | Irq_delivery | Completion | Total

let stages = [ Queue_wait; Service; Irq_delivery; Completion; Total ]

let stage_label = function
  | Queue_wait -> "queue_wait"
  | Service -> "service"
  | Irq_delivery -> "irq_delivery"
  | Completion -> "completion"
  | Total -> "total"

(* A stage's duration, [None] while (or forever if) one of its
   boundaries was never observed. The service stage of a request whose
   completion needed no interrupt (or whose irq events were evicted)
   falls back to the completion timestamp. *)
let stage_ns r stage =
  let span a b = if a < 0 || b < 0 || b < a then None else Some (b - a) in
  match stage with
  | Queue_wait -> span r.submitted_at r.started_at
  | Service -> (
      match span r.started_at r.irq_delivered_at with
      | Some _ as s -> s
      | None -> span r.started_at r.completed_at)
  | Irq_delivery -> span r.irq_raised_at r.irq_delivered_at
  | Completion -> span r.irq_delivered_at r.completed_at
  | Total -> span r.submitted_at r.completed_at

let complete r = r.completed_at >= 0

type t = {
  clock : unit -> int;
  unit : string;  (* "ns" on the default clock, "ticks" on any other *)
  metrics : Metrics.t option;
  by_rid : (int, record) Hashtbl.t;
  mutable order : record list;  (* newest first; all requests ever seen *)
  mutable submitted : int;
  mutable completed : int;
  mutable lost_interrupts : int;
  mutable spurious_completions : int;
}

let default_clock () = Int64.to_int (Monotonic_clock.now ())

let feed_metrics t r =
  match t.metrics with
  | None -> ()
  | Some m ->
      List.iter
        (fun stage ->
          match stage_ns r stage with
          | None -> ()
          | Some ns ->
              Metrics.observe m
                (Printf.sprintf "lifecycle.%s.%s.%s" r.dev (stage_label stage)
                   t.unit)
                ns)
        stages

let on_event t (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Queue_submitted { dev; label; rid; _ } when rid > 0 ->
      let r =
        {
          rid;
          dev;
          label;
          submitted_at = t.clock ();
          started_at = -1;
          irq_raised_at = -1;
          irq_delivered_at = -1;
          completed_at = -1;
          ok = false;
          polls = 0;
          retries = 0;
          late_completion = false;
        }
      in
      Hashtbl.replace t.by_rid rid r;
      t.order <- r :: t.order;
      t.submitted <- t.submitted + 1;
      (match t.metrics with
      | None -> ()
      | Some m -> Metrics.incr m "lifecycle.submitted")
  | Trace.Queue_started { rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r when r.started_at < 0 -> r.started_at <- t.clock ()
      | _ -> ())
  | Trace.Irq_raised { rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r when r.irq_raised_at < 0 -> r.irq_raised_at <- t.clock ()
      | _ -> ())
  | Trace.Irq_delivered { rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r when r.irq_delivered_at < 0 -> r.irq_delivered_at <- t.clock ()
      | _ -> ())
  | Trace.Poll { rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r -> r.polls <- r.polls + 1
      | None -> ())
  | Trace.Retry { rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r -> r.retries <- r.retries + 1
      | None -> ())
  | Trace.Queue_completed { ok; rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some r when r.completed_at < 0 ->
          r.completed_at <- t.clock ();
          r.ok <- ok;
          t.completed <- t.completed + 1;
          (match t.metrics with
          | None -> ()
          | Some m -> Metrics.incr m "lifecycle.completed");
          feed_metrics t r
      | _ -> ())
  | Trace.Queue_late { rid; _ } ->
      if rid > 0 then begin
        t.lost_interrupts <- t.lost_interrupts + 1;
        (match Hashtbl.find_opt t.by_rid rid with
        | Some r -> r.late_completion <- true
        | None -> ());
        match t.metrics with
        | None -> ()
        | Some m -> Metrics.incr m "lifecycle.lost_interrupts"
      end
      else begin
        t.spurious_completions <- t.spurious_completions + 1;
        match t.metrics with
        | None -> ()
        | Some m -> Metrics.incr m "lifecycle.spurious_completions"
      end
  | _ -> ()

let attach ?clock ?metrics trace =
  let t =
    {
      clock = Option.value clock ~default:default_clock;
      unit = (if Option.is_none clock then "ns" else "ticks");
      metrics;
      by_rid = Hashtbl.create 64;
      order = [];
      submitted = 0;
      completed = 0;
      lost_interrupts = 0;
      spurious_completions = 0;
    }
  in
  Trace.subscribe trace (fun e -> on_event t e);
  t

(* Offline replay: rebuild lifecycles from an already-recorded event
   list, using each event's sequence number as the clock (stage
   durations come out in trace-sequence ticks rather than
   nanoseconds). *)
let of_events ?metrics events =
  let now = ref 0 in
  let t =
    {
      clock = (fun () -> !now);
      unit = "ticks";
      metrics;
      by_rid = Hashtbl.create 64;
      order = [];
      submitted = 0;
      completed = 0;
      lost_interrupts = 0;
      spurious_completions = 0;
    }
  in
  List.iter
    (fun (e : Trace.event) ->
      now := e.Trace.seq;
      on_event t e)
    events;
  t

let requests t = List.rev t.order
let find t rid = Hashtbl.find_opt t.by_rid rid
let submitted t = t.submitted
let completed t = t.completed
let lost_interrupts t = t.lost_interrupts
let spurious_completions t = t.spurious_completions
let orphans t = List.rev (List.filter (fun r -> not (complete r)) t.order)

let pp_record fmt r =
  let pp_stage fmt stage =
    match stage_ns r stage with
    | None -> Format.fprintf fmt "%s=?" (stage_label stage)
    | Some ns -> Format.fprintf fmt "%s=%d" (stage_label stage) ns
  in
  Format.fprintf fmt "req #%d %s/%s %s" r.rid r.dev r.label
    (if not (complete r) then "ORPHAN"
     else if r.ok then "ok"
     else "failed");
  List.iter (fun s -> Format.fprintf fmt " %a" pp_stage s) stages
