(* The generated fault campaign: derive the busiest bus addresses of a
   deterministic workload, then explore single (or multi, via ~budget)
   scheduled injections over them with Explore, holding the recovery
   invariant: a transient fault that fired must leave the policy-wrapped
   workload with exactly the clean run's outcomes, and no raw exception
   may ever escape the Policy boundary. Value-corrupting kinds (stuck
   bits, flips, dropped/duplicated writes) are allowed to change
   outcomes — a memory bus gives the driver nothing to detect them
   with — but still must not leak exceptions. Any violation found is
   minimized with Explore.shrink before being reported. *)

module Ir = Devil_ir.Ir
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Instance = Devil_runtime.Instance
module Fault = Devil_runtime.Fault
module Policy = Devil_runtime.Policy
module Explore = Devil_runtime.Explore
module Coverage = Devil_runtime.Coverage

type choice = {
  c_op : Fault.op;
  c_addr : int;
  c_kind : Fault.kind;
  c_label : string;
}

let choice ~op ~addr kind =
  {
    c_op = op;
    c_addr = addr;
    c_kind = kind;
    c_label =
      Printf.sprintf "%s@0x%x:%s"
        (match op with Fault.Read -> "read" | Fault.Write -> "write")
        addr (Fault.kind_tag kind);
  }

let pp_choice fmt c = Format.pp_print_string fmt c.c_label

let read_kinds =
  [
    Fault.Transient { probability = 1.0 };
    Fault.Flip_bits { mask = 0xff; probability = 1.0 };
    Fault.Stuck_bits { and_mask = 0x0f; or_mask = 0x01 };
  ]

let write_kinds =
  [
    Fault.Transient { probability = 1.0 };
    Fault.Drop_write { probability = 1.0 };
    Fault.Duplicate_write { probability = 1.0 };
  ]

let is_transient_kind = function Fault.Transient _ -> true | _ -> false

(* Busiest addresses per direction, from the clean run's bus events
   (block transfers count one covered operation per element, matching
   the injector's ordinal space). *)
let busiest ~per_dir (events : Trace.event list) =
  let h = Hashtbl.create 32 in
  let bump op addr n =
    let k = (op, addr) in
    Hashtbl.replace h k (n + Option.value ~default:0 (Hashtbl.find_opt h k))
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Bus_read { addr; _ } -> bump Fault.Read addr 1
      | Bus_write { addr; _ } -> bump Fault.Write addr 1
      | Bus_block_read { addr; count; _ } -> bump Fault.Read addr count
      | Bus_block_write { addr; count; _ } -> bump Fault.Write addr count
      | _ -> ())
    events;
  let top op =
    Hashtbl.fold (fun (o, addr) n acc -> if o = op then (addr, n) :: acc else acc) h []
    |> List.sort (fun (a1, n1) (a2, n2) ->
           match compare n2 n1 with 0 -> compare a1 a2 | c -> c)
    |> List.filteri (fun i _ -> i < per_dir)
    |> List.map fst
  in
  (top Fault.Read, top Fault.Write)

(* {1 Executing the workload under the recovery policy} *)

(* Every operation runs inside the full policy stack; the only
   exception allowed out is Driver_error, which we classify. *)
let exec ?attempts inst op =
  let l = "harness:" ^ Opgen.pp_op op in
  try
    Opgen.pp_outcome
      (Policy.with_retries ?attempts ~label:l (fun () ->
           Policy.guarded ~label:l (fun () -> Opgen.run_op_raw inst op)))
  with Policy.Driver_error e -> "driver error: " ^ Policy.error_to_string e

let is_driver_error s =
  String.length s >= 12 && String.sub s 0 12 = "driver error"

(* {1 The campaign} *)

type violation = {
  fv_detail : string;
  fv_schedule : string;  (** minimized, replayable: choice\@slot list *)
  fv_shrink_runs : int;
}

type report = {
  fb_ops : int;  (** workload length, in operations *)
  fb_choices : int;  (** (site, kind) decisions explored *)
  fb_runs : int;
  fb_recovered : int;  (** fired and outcomes identical to clean *)
  fb_detected : int;  (** fired, divergent, surfaced as a classified error *)
  fb_corrupt : int;  (** fired, silently divergent, corrupting kind *)
  fb_infeasible : int;  (** scheduled ordinal beyond the traffic *)
  fb_violations : violation list;
}

let campaign ?coverage ?(depth = 3) ?(budget = 1) ?(sites_per_dir = 2)
    ?attempts ?(seed = 7) ?(length = 10) (device : Ir.device) : report =
  let ops = Opgen.workload device ~seed ~length in
  let bases = Diffbat.bases_for device in
  let build injections =
    let raw = Bus.memory ~size:4096 () in
    Diffbat.seed_bus ~seed raw;
    let trace = Trace.create ~capacity:200_000 () in
    let ctx = Devil_runtime.Ctx.create ~trace () in
    let inj = Fault.scheduled ~injections raw in
    let bus = Bus.observed ~ctx (Fault.bus inj) in
    let inst =
      Instance.create ~label:Diffbat.label ~ctx ~interpret:false device ~bus
        ~bases
    in
    (inst, inj, trace)
  in
  (* Pass A: the clean baseline — same engine stack, no decisions.
     Its outcomes are the recovery invariant's right-hand side, its bus
     traffic selects the injection sites, and its trace feeds the
     shared coverage accumulator. *)
  let clean_inst, _, clean_trace = build [] in
  Option.iter (fun cov -> Coverage.attach cov clean_trace) coverage;
  let clean = List.map (exec ?attempts clean_inst) ops in
  let reads, writes = busiest ~per_dir:sites_per_dir (Trace.events clean_trace) in
  let choices =
    List.concat_map
      (fun addr -> List.map (fun k -> choice ~op:Fault.Read ~addr k) read_kinds)
      reads
    @ List.concat_map
        (fun addr ->
          List.map (fun k -> choice ~op:Fault.Write ~addr k) write_kinds)
        writes
  in
  (* Probes make every choice's traffic horizon observable on every
     run, including the empty schedule Explore starts from. *)
  let probes =
    List.map
      (fun c ->
        Fault.injection ~label:c.c_label ~op:c.c_op ~at:max_int ~first:c.c_addr
          ~last:c.c_addr c.c_kind)
      choices
  in
  let run_sched (sched : choice Explore.schedule) : choice Explore.outcome =
    let injections =
      probes
      @ List.map
          (fun (d : choice Explore.decision) ->
            let c = d.choice in
            Fault.injection ~label:c.c_label ~op:c.c_op ~at:d.slot
              ~first:c.c_addr ~last:c.c_addr c.c_kind)
          sched
    in
    let inst, inj, _ = build injections in
    let escaped = ref None in
    let outcomes =
      List.map
        (fun op ->
          match !escaped with
          | Some _ -> "skipped"
          | None -> (
              try exec ?attempts inst op
              with e ->
                escaped := Some (Opgen.pp_op op ^ ": " ^ Printexc.to_string e);
                "escaped"))
        ops
    in
    let fired = Fault.scheduled_hits inj in
    let ok, detail =
      match !escaped with
      | Some e -> (false, "exception escaped the policy boundary: " ^ e)
      | None ->
          if fired < List.length sched then (true, "infeasible")
          else if sched = [] then (true, "clean")
          else if outcomes = clean then (true, "recovered")
          else if List.for_all (fun (d : choice Explore.decision) ->
                      is_transient_kind d.choice.c_kind)
                    sched
          then
            ( false,
              "recovery invariant: outcomes diverged from the clean run \
               after transient fault(s) "
              ^ String.concat ", "
                  (List.map
                     (fun (d : choice Explore.decision) ->
                       Printf.sprintf "%s@%d" d.choice.c_label d.slot)
                     sched) )
          else
            let new_error =
              List.exists2
                (fun c o -> c <> o && is_driver_error o)
                clean outcomes
            in
            (true, if new_error then "detected" else "corrupt")
    in
    {
      Explore.oc_ok = ok;
      oc_detail = detail;
      oc_fired = fired;
      oc_state = Hashtbl.hash outcomes;
      oc_horizon = (fun c -> Fault.seen_for inj c.c_label);
    }
  in
  let recovered = ref 0 and detected = ref 0 and corrupt = ref 0 in
  let tally _sched (o : choice Explore.outcome) =
    match o.oc_detail with
    | "recovered" -> incr recovered
    | "detected" -> incr detected
    | "corrupt" -> incr corrupt
    | _ -> ()
  in
  let rp =
    Explore.explore ~depth ~budget ~choices ~run:run_sched ~on_run:tally ()
  in
  let violations =
    List.map
      (fun (v : choice Explore.violation) ->
        let minimized, runs = Explore.shrink ~run:run_sched v.vx_schedule in
        {
          fv_detail = v.vx_detail;
          fv_schedule =
            Format.asprintf "%a" (Explore.pp_schedule pp_choice) minimized;
          fv_shrink_runs = runs;
        })
      rp.rp_violations
  in
  {
    fb_ops = List.length ops;
    fb_choices = List.length choices;
    fb_runs = rp.rp_runs;
    fb_recovered = !recovered;
    fb_detected = !detected;
    fb_corrupt = !corrupt;
    fb_infeasible = rp.rp_infeasible;
    fb_violations = violations;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "ops %d  choices %d  runs %d  recovered %d  detected %d  corrupt %d  \
     infeasible %d  violations %d"
    r.fb_ops r.fb_choices r.fb_runs r.fb_recovered r.fb_detected r.fb_corrupt
    r.fb_infeasible
    (List.length r.fb_violations)
