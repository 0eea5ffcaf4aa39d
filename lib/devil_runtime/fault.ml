exception Bus_fault = Bus.Bus_fault

type op = Read | Write

type kind =
  | Stuck_bits of { and_mask : int; or_mask : int }
  | Flip_bits of { mask : int; probability : float }
  | Drop_write of { probability : float }
  | Duplicate_write of { probability : float }
  | Transient of { probability : float }

let kind_tag = function
  | Stuck_bits _ -> "stuck"
  | Flip_bits _ -> "flip"
  | Drop_write _ -> "drop"
  | Duplicate_write _ -> "dup"
  | Transient _ -> "transient"

type plan = {
  label : string;
  first : int;
  last : int;
  ops : op list;
  kind : kind;
  budget : int option;
}

let plan ?(ops = [ Read; Write ]) ?budget ~label ~first ~last kind =
  if last < first then invalid_arg "Fault.plan: empty address range";
  { label; first; last; ops; kind; budget }

type pstate = { p : plan; mutable left : int option; mutable fired : int }

(* {1 Scheduled injections}

   The deterministic counterpart of a plan: instead of a probability
   draw, an injection names the exact covered operation — the [at]-th
   access (0-based) matching its direction and address window — that
   must fault. Probability fields inside [kind] are ignored; a
   scheduled decision always takes effect when its ordinal is
   reached. This is what the exploration engine enumerates. *)

type injection = {
  sx_label : string;
  sx_op : op;
  sx_at : int;
  sx_first : int;
  sx_last : int;
  sx_kind : kind;
}

type sstate = { sx : injection; mutable seen : int; mutable hit : bool }

type t = {
  underlying : Bus.t;
  plans : pstate list;
  sched : sstate list;
  mutable rng : int;
  mutable seq : int;
  sink : Trace.t option;  (* the unified observability stream *)
  metrics : Metrics.t option;
}

(* The 48-bit drand48 linear congruential generator: cheap, portable,
   and fully determined by the seed, which is all reproducibility
   needs. *)
let rand t =
  t.rng <- ((t.rng * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
  float_of_int (t.rng lsr 16) /. float_of_int (1 lsl 32)

let draw t probability = probability > 0.0 && rand t < probability

let armed ps ~op ~addr =
  (match ps.left with Some 0 -> false | Some _ | None -> true)
  && List.mem op ps.p.ops
  && addr >= ps.p.first
  && addr <= ps.p.last

let emit_fired t ~label ~addr ~width ~detail =
  (match t.sink with
  | Some tr ->
      Trace.emit tr (Trace.Fault_injected { plan = label; addr; width; detail })
  | None -> ());
  match t.metrics with
  | Some m ->
      Metrics.incr m "fault.injections";
      Metrics.incr m ("fault." ^ label ^ ".injections")
  | None -> ()

let fire t ps ~addr ~width ~detail =
  (match ps.left with Some n -> ps.left <- Some (n - 1) | None -> ());
  ps.fired <- ps.fired + 1;
  emit_fired t ~label:ps.p.label ~addr ~width ~detail

(* Transient plans are evaluated before the device is touched, so a
   raised fault leaves the device state exactly as the driver last saw
   it and a retry starts clean. *)
let check_transient t ~op ~addr ~width =
  List.iter
    (fun ps ->
      match ps.p.kind with
      | Transient { probability } when armed ps ~op ~addr ->
          if draw t probability then begin
            fire t ps ~addr ~width ~detail:"transient bus fault";
            raise
              (Bus_fault
                 (Printf.sprintf "%s: transient fault on %s [%#x]"
                    ps.p.label
                    (match op with Read -> "read" | Write -> "write")
                    addr))
          end
      | _ -> ())
    t.plans

(* Value mutations shared by the read and write paths. *)
let mutate_value t ~op ~addr ~width v =
  List.fold_left
    (fun v ps ->
      if not (armed ps ~op ~addr) then v
      else
        match ps.p.kind with
        | Stuck_bits { and_mask; or_mask } ->
            let v' = v land and_mask lor or_mask in
            if v' <> v then begin
              fire t ps ~addr ~width
                ~detail:(Printf.sprintf "stuck bits %#x -> %#x" v v');
              v'
            end
            else v
        | Flip_bits { mask; probability } ->
            if mask <> 0 && draw t probability then begin
              let v' = v lxor mask in
              fire t ps ~addr ~width
                ~detail:(Printf.sprintf "flipped %#x: %#x -> %#x" mask v v');
              v'
            end
            else v
        | Drop_write _ | Duplicate_write _ | Transient _ -> v)
    v t.plans

let dropped t ~addr ~width =
  List.exists
    (fun ps ->
      match ps.p.kind with
      | Drop_write { probability } when armed ps ~op:Write ~addr ->
          if draw t probability then begin
            fire t ps ~addr ~width ~detail:"write dropped";
            true
          end
          else false
      | _ -> false)
    t.plans

let duplicated t ~addr ~width =
  List.exists
    (fun ps ->
      match ps.p.kind with
      | Duplicate_write { probability } when armed ps ~op:Write ~addr ->
          if draw t probability then begin
            fire t ps ~addr ~width ~detail:"write duplicated";
            true
          end
          else false
      | _ -> false)
    t.plans

(* Advance every scheduled injection's covered-operation counter by
   [count] accesses of this direction and address, and return the
   activations — the decisions whose ordinal lands inside this burst,
   paired with the element index they apply to. *)
let sched_step t ~op ~addr ~count =
  List.filter_map
    (fun ss ->
      let sx = ss.sx in
      if sx.sx_op = op && addr >= sx.sx_first && addr <= sx.sx_last then begin
        let base = ss.seen in
        ss.seen <- base + count;
        if sx.sx_at >= base && sx.sx_at < base + count then
          Some (sx.sx_at - base, ss)
        else None
      end
      else None)
    t.sched

let sched_fire t ss ~addr ~width ~detail =
  ss.hit <- true;
  emit_fired t ~label:ss.sx.sx_label ~addr ~width ~detail

(* Scheduled transients keep the seeded semantics: the whole access —
   a block transfer included — aborts before the device is touched,
   so a retry starts from clean device state. *)
let sched_transients t acts ~op ~addr ~width =
  List.iter
    (fun (_, ss) ->
      match ss.sx.sx_kind with
      | Transient _ ->
          sched_fire t ss ~addr ~width ~detail:"transient bus fault";
          raise
            (Bus_fault
               (Printf.sprintf "%s: transient fault on %s [%#x]" ss.sx.sx_label
                  (match op with Read -> "read" | Write -> "write")
                  addr))
      | _ -> ())
    acts

(* Value mutation for the scheduled activations of element [i]. The
   decision is unconditional: a stuck/flip injection rewrites the
   value even when the rewrite happens to be a no-op, so the schedule
   feasibility accounting ([hit]) stays deterministic. *)
let sched_mutate t acts ~i ~addr ~width v =
  List.fold_left
    (fun v (j, ss) ->
      if j <> i then v
      else
        match ss.sx.sx_kind with
        | Stuck_bits { and_mask; or_mask } ->
            let v' = v land and_mask lor or_mask in
            sched_fire t ss ~addr ~width
              ~detail:(Printf.sprintf "stuck bits %#x -> %#x" v v');
            v'
        | Flip_bits { mask; _ } ->
            let v' = v lxor mask in
            sched_fire t ss ~addr ~width
              ~detail:(Printf.sprintf "flipped %#x: %#x -> %#x" mask v v');
            v'
        | Drop_write _ | Duplicate_write _ | Transient _ -> v)
    v acts

let sched_dropped t acts ~i ~addr ~width =
  List.exists
    (fun (j, ss) ->
      j = i
      &&
      match ss.sx.sx_kind with
      | Drop_write _ ->
          sched_fire t ss ~addr ~width ~detail:"write dropped";
          true
      | _ -> false)
    acts

let sched_duplicated t acts ~i ~addr ~width =
  List.exists
    (fun (j, ss) ->
      j = i
      &&
      match ss.sx.sx_kind with
      | Duplicate_write _ ->
          sched_fire t ss ~addr ~width ~detail:"write duplicated";
          true
      | _ -> false)
    acts

let read t ~width ~addr =
  t.seq <- t.seq + 1;
  check_transient t ~op:Read ~addr ~width;
  let acts = sched_step t ~op:Read ~addr ~count:1 in
  sched_transients t acts ~op:Read ~addr ~width;
  let v = t.underlying.Bus.read ~width ~addr in
  let v = mutate_value t ~op:Read ~addr ~width v in
  sched_mutate t acts ~i:0 ~addr ~width v

let write t ~width ~addr ~value =
  t.seq <- t.seq + 1;
  check_transient t ~op:Write ~addr ~width;
  let acts = sched_step t ~op:Write ~addr ~count:1 in
  sched_transients t acts ~op:Write ~addr ~width;
  if not (dropped t ~addr ~width || sched_dropped t acts ~i:0 ~addr ~width)
  then begin
    let value = mutate_value t ~op:Write ~addr ~width value in
    let value = sched_mutate t acts ~i:0 ~addr ~width value in
    t.underlying.Bus.write ~width ~addr ~value;
    if duplicated t ~addr ~width || sched_duplicated t acts ~i:0 ~addr ~width
    then t.underlying.Bus.write ~width ~addr ~value
  end

(* Block transfers: one transient decision for the whole burst (the
   fault aborts the transfer before it starts), value faults per
   element (each element is its own electrical event). Scheduled
   ordinals count elements, so an injection can target the k-th word
   of a burst precisely. *)
let read_block t ~width ~addr ~into =
  t.seq <- t.seq + Array.length into;
  check_transient t ~op:Read ~addr ~width;
  let acts = sched_step t ~op:Read ~addr ~count:(Array.length into) in
  sched_transients t acts ~op:Read ~addr ~width;
  t.underlying.Bus.read_block ~width ~addr ~into;
  Array.iteri
    (fun i v ->
      let v = mutate_value t ~op:Read ~addr ~width v in
      into.(i) <- sched_mutate t acts ~i ~addr ~width v)
    into

let write_block t ~width ~addr ~from =
  t.seq <- t.seq + Array.length from;
  check_transient t ~op:Write ~addr ~width;
  let acts = sched_step t ~op:Write ~addr ~count:(Array.length from) in
  sched_transients t acts ~op:Write ~addr ~width;
  let out = ref [] in
  Array.iteri
    (fun i v ->
      if not (dropped t ~addr ~width || sched_dropped t acts ~i ~addr ~width)
      then begin
        let v = mutate_value t ~op:Write ~addr ~width v in
        let v = sched_mutate t acts ~i ~addr ~width v in
        out := v :: !out;
        if duplicated t ~addr ~width || sched_duplicated t acts ~i ~addr ~width
        then out := v :: !out
      end)
    from;
  let adjusted = Array.of_list (List.rev !out) in
  if Array.length adjusted > 0 || Array.length from = 0 then
    t.underlying.Bus.write_block ~width ~addr ~from:adjusted

let wrap ?(seed = 0) ?sink ?metrics ~plans underlying =
  (* Mix the seed so that seeds 0 and 1 do not share a prefix. *)
  {
    underlying;
    plans =
      List.map (fun p -> { p; left = p.budget; fired = 0 }) plans;
    sched = [];
    rng = (((seed + 1) * 0x5DEECE66D) + 3037000493) land 0xFFFF_FFFF_FFFF;
    seq = 0;
    sink;
    metrics;
  }

let injection ?label ~op ~at ~first ~last kind =
  if last < first then invalid_arg "Fault.injection: empty address range";
  if at < 0 then invalid_arg "Fault.injection: negative ordinal";
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "sched:%s%#x@%d"
          (match op with Read -> "r" | Write -> "w")
          first at
  in
  { sx_label = label; sx_op = op; sx_at = at; sx_first = first; sx_last = last;
    sx_kind = kind }

let scheduled ?sink ?metrics ~injections underlying =
  {
    underlying;
    plans = [];
    sched = List.map (fun sx -> { sx; seen = 0; hit = false }) injections;
    rng = 0;
    seq = 0;
    sink;
    metrics;
  }

let bus t =
  {
    Bus.read = (fun ~width ~addr -> read t ~width ~addr);
    write = (fun ~width ~addr ~value -> write t ~width ~addr ~value);
    read_block = (fun ~width ~addr ~into -> read_block t ~width ~addr ~into);
    write_block = (fun ~width ~addr ~from -> write_block t ~width ~addr ~from);
  }

let operations t = t.seq

let injection_count t =
  List.fold_left (fun n ps -> n + ps.fired) 0 t.plans
  + List.fold_left (fun n ss -> n + if ss.hit then 1 else 0) 0 t.sched

let injections_for t label =
  List.fold_left
    (fun n ps -> if ps.p.label = label then n + ps.fired else n)
    0 t.plans
  + List.fold_left
      (fun n ss -> if ss.sx.sx_label = label && ss.hit then n + 1 else n)
      0 t.sched

let scheduled_hits t =
  List.fold_left (fun n ss -> n + if ss.hit then 1 else 0) 0 t.sched

let scheduled_misses t =
  List.filter_map (fun ss -> if ss.hit then None else Some ss.sx) t.sched

let seen_for t label =
  List.fold_left
    (fun n ss -> if ss.sx.sx_label = label then max n ss.seen else n)
    0 t.sched
