(* The exploration floor: one pass of Excamp exploration at
   [default_bound] over the five built-in driver workloads, in an order
   the seed picks, timed from outside. It carries the layers a schedule
   crosses (machine construction, Plan.compile, Fault, Bus.recording,
   Monitor and the explore engine), which no timed workload loads.

   Each schedule builds a fresh fault-injected machine and is judged by
   Monitor. Every eighth schedule, from a seeded offset, is run again
   through [Excamp.run_schedule ~record:true], which loads the tape
   wrapper and must reproduce the exploration's outcome. It is then run
   once more without the tape, and a machine is built as the schedule
   builds its own: the three times split the schedule's interval inside
   the exploration into construction, the rest of the schedule and the
   engine, and the recorded run into the run and the tape. *)

module R = Devil_runtime
module Excamp = Explorecamp.Excamp
module Campaign = Faultcamp.Campaign

let drivers = [| "ide-read"; "ide-write"; "serial"; "net"; "gfx" |]
let record_one_in = 8

(* A machine built as [Excamp.run_schedule] builds one for each
   schedule: trace, metrics and lifecycle on, over a scheduled
   injector. *)
let schedule_machine () =
  let trace = R.Trace.create ~capacity:512 () and metrics = R.Metrics.create () in
  let wrap_bus raw =
    R.Fault.bus (R.Fault.scheduled ~sink:trace ~metrics ~injections:[] raw)
  in
  ignore (Drivers.Machine.create ~trace ~metrics ~wrap_bus ~lifecycle:true ());
  R.Policy.unobserve ()

type totals = {
  mutable schedules : int;
  mutable schedule_ns : int;  (* every schedule's interval *)
  mutable fired : int;
  mutable sampled : int;  (* re-run schedules, the first of each exploration excepted *)
  mutable interval_ns : int;  (* their intervals inside the exploration *)
  mutable recorded_ns : int;  (* their runs with the tape *)
  mutable direct_ns : int;  (* their runs alone, without it *)
  mutable create_ns : int;  (* a machine built as each builds its own *)
}

let explore_one ~rng t (ph : Harness.phase) (w : Excamp.workload) =
  let offset = Random.State.int rng record_one_in in
  let picked = ref [] and runs = ref 0 in
  let last = ref (Clock.ns ()) in
  let on_run sched (oc : Excamp.choice R.Explore.outcome) =
    let now = Clock.ns () in
    incr runs;
    t.schedules <- t.schedules + 1;
    t.schedule_ns <- t.schedule_ns + (now - !last);
    t.fired <- t.fired + oc.oc_fired;
    if not oc.oc_ok then Harness.problem ph "%s: %s" w.w_name oc.oc_detail;
    if (!runs + offset) mod record_one_in = 0 then
      picked := (sched, oc.oc_state, now - !last, !runs = 1) :: !picked;
    last := Clock.ns ()
  in
  let r = Excamp.explore_workload ~on_run w in
  let monitor = R.Monitor.create ~devices:w.w_devices in
  Campaign.with_campaign_policy (fun () ->
      List.iter
        (fun (sched, state, interval, first) ->
          let t0 = Clock.ns () in
          let e = Excamp.run_schedule ~record:true ~monitor w r.r_choices sched in
          let t1 = Clock.ns () in
          if not e.e_ok then Harness.problem ph "%s: recorded: %s" w.w_name e.e_detail
          else if e.e_state <> state then
            Harness.problem ph "%s: recorded run reached another state" w.w_name
          else if e.e_tape = None then
            Harness.problem ph "%s: recorded run has no tape" w.w_name;
          (* The first schedule's interval also holds site discovery. *)
          if not first then begin
            ignore (Excamp.run_schedule ~monitor w r.r_choices sched);
            let t2 = Clock.ns () in
            schedule_machine ();
            t.sampled <- t.sampled + 1;
            t.interval_ns <- t.interval_ns + interval;
            t.recorded_ns <- t.recorded_ns + (t1 - t0);
            t.direct_ns <- t.direct_ns + (t2 - t1);
            t.create_ns <- t.create_ns + (Clock.ns () - t2)
          end)
        (List.rev !picked))

(* One seeded pass; problems go to [ph]. Returns (name, unit, value). *)
let run ~seed (ph : Harness.phase) =
  let workloads = Array.map Excamp.builtin drivers in
  let rng = Random.State.make [| seed; 0xe8 |] in
  let n = Array.length drivers in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let t =
    {
      schedules = 0;
      schedule_ns = 0;
      fired = 0;
      sampled = 0;
      interval_ns = 0;
      recorded_ns = 0;
      direct_ns = 0;
      create_ns = 0;
    }
  in
  Array.iter (fun d -> explore_one ~rng t ph workloads.(d)) order;
  let f = float_of_int in
  [
    ( "explore.schedules_per_s",
      "1/s",
      f t.schedules /. (f t.schedule_ns /. 1e9) );
    ("explore.injections_per_schedule", "count", f t.fired /. f t.schedules);
    ("explore.create_share", "share", f t.create_ns /. f t.interval_ns);
    ("explore.engine_share", "share", 1.0 -. (f t.direct_ns /. f t.interval_ns));
    ("explore.record_share", "share", (f t.recorded_ns /. f t.direct_ns) -. 1.0);
    ("explore.recorded_us", "us", f t.recorded_ns /. f t.sampled /. 1e3);
  ]
