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

(* Online, a machine may run for millions of requests, so [t] keeps
   the open requests plus the last [window] finished ones; the stage
   histograms and the counters already hold the totals. Offline
   ([of_events]) every record is kept, for the tracetool report. Each
   record carries its submit index, which orders [requests] and
   [orphans]. *)
let window = 256

type entry = { idx : int; r : record }

type counters = {
  c_submitted : Metrics.Counter.t;
  c_completed : Metrics.Counter.t;
  c_lost : Metrics.Counter.t;
  c_spurious : Metrics.Counter.t;
  m : Metrics.t;
  stage_hists : (string, Metrics.Histogram.t array) Hashtbl.t;  (* by dev *)
}

type t = {
  clock : unit -> int;
  unit : string;  (* "ns" on the default clock, "ticks" on any other *)
  counters : counters option;
  retain : int;  (* finished records kept *)
  by_rid : (int, entry) Hashtbl.t;  (* retained records, the latest per id *)
  opened : (int, entry) Hashtbl.t;  (* open records, by submit index *)
  finished : entry Queue.t;  (* retained finished records, oldest first *)
  mutable next_idx : int;
  mutable submitted : int;
  mutable completed : int;
  mutable lost_interrupts : int;
  mutable spurious_completions : int;
}

let default_clock () = Int64.to_int (Monotonic_clock.now ())

let counters m =
  let c = Metrics.Counter.make m in
  {
    c_submitted = c "lifecycle.submitted";
    c_completed = c "lifecycle.completed";
    c_lost = c "lifecycle.lost_interrupts";
    c_spurious = c "lifecycle.spurious_completions";
    m;
    stage_hists = Hashtbl.create 8;
  }

let create ~clock ~unit ~retain metrics =
  {
    clock;
    unit;
    counters = Option.map counters metrics;
    retain;
    by_rid = Hashtbl.create 64;
    opened = Hashtbl.create 16;
    finished = Queue.create ();
    next_idx = 0;
    submitted = 0;
    completed = 0;
    lost_interrupts = 0;
    spurious_completions = 0;
  }

let count t f =
  match t.counters with None -> () | Some c -> Metrics.Counter.incr (f c)

let stage_hists t c dev =
  match Hashtbl.find_opt c.stage_hists dev with
  | Some hs -> hs
  | None ->
      let hs =
        Array.of_list
          (List.map
             (fun stage ->
               Metrics.Histogram.make c.m
                 (Printf.sprintf "lifecycle.%s.%s.%s" dev (stage_label stage)
                    t.unit))
             stages)
      in
      Hashtbl.replace c.stage_hists dev hs;
      hs

let feed_metrics t r =
  match t.counters with
  | None -> ()
  | Some c ->
      let hs = stage_hists t c r.dev in
      List.iteri
        (fun i stage ->
          match stage_ns r stage with
          | None -> ()
          | Some ns -> Metrics.Histogram.observe hs.(i) ns)
        stages

let find_record t rid =
  match Hashtbl.find_opt t.by_rid rid with Some e -> Some e.r | None -> None

let finish t e =
  Hashtbl.remove t.opened e.idx;
  Queue.push e t.finished;
  if Queue.length t.finished > t.retain then begin
    let old = Queue.pop t.finished in
    match Hashtbl.find_opt t.by_rid old.r.rid with
    | Some e' when e' == old -> Hashtbl.remove t.by_rid old.r.rid
    | _ -> ()
  end

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
      let e = { idx = t.next_idx; r } in
      t.next_idx <- t.next_idx + 1;
      Hashtbl.replace t.by_rid rid e;
      Hashtbl.replace t.opened e.idx e;
      t.submitted <- t.submitted + 1;
      count t (fun c -> c.c_submitted)
  | Trace.Queue_started { rid; _ } when rid > 0 -> (
      match find_record t rid with
      | Some r when r.started_at < 0 -> r.started_at <- t.clock ()
      | _ -> ())
  | Trace.Irq_raised { rid; _ } when rid > 0 -> (
      match find_record t rid with
      | Some r when r.irq_raised_at < 0 -> r.irq_raised_at <- t.clock ()
      | _ -> ())
  | Trace.Irq_delivered { rid; _ } when rid > 0 -> (
      match find_record t rid with
      | Some r when r.irq_delivered_at < 0 -> r.irq_delivered_at <- t.clock ()
      | _ -> ())
  | Trace.Poll { rid; _ } when rid > 0 -> (
      match find_record t rid with
      | Some r -> r.polls <- r.polls + 1
      | None -> ())
  | Trace.Retry { rid; _ } when rid > 0 -> (
      match find_record t rid with
      | Some r -> r.retries <- r.retries + 1
      | None -> ())
  | Trace.Queue_completed { ok; rid; _ } when rid > 0 -> (
      match Hashtbl.find_opt t.by_rid rid with
      | Some ({ r; _ } as e) when r.completed_at < 0 ->
          r.completed_at <- t.clock ();
          r.ok <- ok;
          t.completed <- t.completed + 1;
          count t (fun c -> c.c_completed);
          feed_metrics t r;
          finish t e
      | _ -> ())
  | Trace.Queue_late { rid; _ } ->
      if rid > 0 then begin
        t.lost_interrupts <- t.lost_interrupts + 1;
        (match find_record t rid with
        | Some r -> r.late_completion <- true
        | None -> ());
        count t (fun c -> c.c_lost)
      end
      else begin
        t.spurious_completions <- t.spurious_completions + 1;
        count t (fun c -> c.c_spurious)
      end
  | _ -> ()

let attach ?clock ?metrics trace =
  let t =
    create
      ~clock:(Option.value clock ~default:default_clock)
      ~unit:(if Option.is_none clock then "ns" else "ticks")
      ~retain:window metrics
  in
  Trace.subscribe trace (fun e -> on_event t e);
  t

(* Offline replay: rebuild lifecycles from an already-recorded event
   list, using each event's sequence number as the clock (stage
   durations come out in trace-sequence ticks rather than
   nanoseconds). *)
let of_events ?metrics events =
  let now = ref 0 in
  let t = create ~clock:(fun () -> !now) ~unit:"ticks" ~retain:max_int metrics in
  List.iter
    (fun (e : Trace.event) ->
      now := e.Trace.seq;
      on_event t e)
    events;
  t

let in_submit_order entries =
  List.map (fun e -> e.r) (List.sort (fun a b -> compare a.idx b.idx) entries)

let open_entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.opened []

let requests t =
  in_submit_order (Queue.fold (fun acc e -> e :: acc) (open_entries t) t.finished)

let find = find_record
let submitted t = t.submitted
let completed t = t.completed
let lost_interrupts t = t.lost_interrupts
let spurious_completions t = t.spurious_completions
let open_requests t = Hashtbl.length t.opened

let orphans t =
  if Hashtbl.length t.opened = 0 then [] else in_submit_order (open_entries t)

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
