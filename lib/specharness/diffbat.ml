(* The differential battery: generated valid operation sequences run on
   the compiled engine against the interpreter, with the protocol
   monitor as a third oracle. The engine plumbing is the same as
   test/test_plan_diff.ml — two identically seeded memory buses, each
   observed by its own trace — but the operation stream comes from the
   site-aware generators of Opgen instead of an error-path-heavy
   grammar. *)

module Ir = Devil_ir.Ir
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Trace = Devil_runtime.Trace
module Monitor = Devil_runtime.Monitor
module Coverage = Devil_runtime.Coverage

let label = "harness"

let bases_for (device : Ir.device) =
  let next = ref 16 in
  List.map
    (fun (p : Ir.port) ->
      let maxoff = List.fold_left max 0 p.p_offsets in
      let b = !next in
      next := !next + maxoff + 16;
      (p.p_name, b))
    device.Ir.d_ports

let seed_bus ~seed (raw : Bus.t) =
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  for addr = 0 to 2047 do
    raw.Bus.write ~width:32 ~addr ~value:(Random.State.int rng 0x10000)
  done

let build_engine ~interpret ~seed (device : Ir.device) bases =
  let raw = Bus.memory ~size:4096 () in
  seed_bus ~seed raw;
  let trace = Trace.create ~capacity:200_000 () in
  let ctx = Devil_runtime.Ctx.create ~trace () in
  let bus = Bus.observed ~ctx raw in
  let inst = Instance.create ~label ~ctx ~interpret device ~bus ~bases in
  (inst, trace)

type divergence = {
  dv_detail : string;  (* what differed *)
  dv_op : int option;  (* operation index, when per-op *)
}

let explain_trace_divergence ta tb =
  let ea = Trace.events ta and eb = Trace.events tb in
  let rec first_diff i = function
    | [], [] -> "traces equal?"
    | a :: _, [] ->
        Format.asprintf "event %d only in compiled: %a" i Trace.pp_event a
    | [], b :: _ ->
        Format.asprintf "event %d only in interpreter: %a" i Trace.pp_event b
    | a :: ra, b :: rb ->
        if a = b then first_diff (i + 1) (ra, rb)
        else
          Format.asprintf
            "event %d differs:@.  compiled:    %a@.  interpreter: %a" i
            Trace.pp_event a Trace.pp_event b
  in
  first_diff 0 (ea, eb)

(* Run one generated sequence on both engines. Returns the first
   divergence, or None when compiled = interpreter = monitor-clean. *)
let run_diff ?coverage (device : Ir.device) ~seed (ops : Opgen.op list) :
    divergence option =
  let bases = bases_for device in
  let compiled, tc = build_engine ~interpret:false ~seed device bases in
  let interp, ti = build_engine ~interpret:true ~seed device bases in
  Option.iter (fun cov -> Coverage.attach cov tc) coverage;
  let exception Diverged of divergence in
  try
    List.iteri
      (fun i op ->
        let oc = Opgen.run_op compiled op in
        let oi = Opgen.run_op interp op in
        if oc <> oi then
          raise
            (Diverged
               {
                 dv_op = Some i;
                 dv_detail =
                   Printf.sprintf "op %d (%s): compiled %s, interpreter %s" i
                     (Opgen.pp_op op) (Opgen.pp_outcome oc)
                     (Opgen.pp_outcome oi);
               }))
      ops;
    let ec = Trace.events tc and ei = Trace.events ti in
    if ec <> ei then
      raise
        (Diverged
           {
             dv_op = None;
             dv_detail =
               "trace divergence: " ^ explain_trace_divergence tc ti;
           });
    let mon = Monitor.create ~devices:[ (label, device) ] in
    Monitor.feed_all mon ec;
    (match Monitor.violations mon with
    | [] -> ()
    | v :: _ ->
        raise
          (Diverged
             {
               dv_op = None;
               dv_detail =
                 Format.asprintf "monitor: %a (of %d violation(s))"
                   Monitor.pp_violation v
                   (Monitor.violation_count mon);
             }));
    List.iter
      (fun (r : Ir.reg) ->
        let c = Instance.cached_raw compiled r.r_name in
        let i = Instance.cached_raw interp r.r_name in
        if c <> i then
          raise
            (Diverged
               {
                 dv_op = None;
                 dv_detail =
                   Printf.sprintf "cached_raw %s: compiled %s, interpreter %s"
                     r.r_name
                     (match c with Some x -> string_of_int x | None -> "-")
                     (match i with Some x -> string_of_int x | None -> "-");
               }))
      device.Ir.d_regs;
    None
  with Diverged d -> Some d

let qcheck_test ?(count = 40) ~name (device : Ir.device) : QCheck.Test.t =
  let gen = QCheck.Gen.(pair (int_bound 0xffff) (Opgen.gen_ops device)) in
  let print (seed, ops) =
    Printf.sprintf "seed:%d\n%s" seed
      (String.concat "\n" (List.map Opgen.pp_op ops))
  in
  let shrink (seed, ops) =
    QCheck.Iter.map (fun ops -> (seed, ops)) (QCheck.Shrink.list ops)
  in
  let arb = QCheck.make ~print ~shrink gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "generated battery: compiled = interpreter on %s" name)
    ~count arb
    (fun (seed, ops) ->
      match run_diff device ~seed ops with
      | None -> true
      | Some d -> QCheck.Test.fail_report d.dv_detail)

(* {1 Single-engine covered execution}

   The obligations and the random sequences also have to feed one
   Coverage accumulator; this runner drives the compiled engine alone
   (no oracle) with the coverage observer attached to its live
   trace. *)

let covered_run ?coverage (device : Ir.device) ~seed (ops : Opgen.op list) :
    Opgen.outcome list =
  let bases = bases_for device in
  let inst, trace = build_engine ~interpret:false ~seed device bases in
  Option.iter (fun cov -> Coverage.attach cov trace) coverage;
  List.map (Opgen.run_op inst) ops
