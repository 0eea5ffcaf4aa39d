module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Layout = Devil_ir.Layout
module Bitops = Devil_bits.Bitops
module Mask = Devil_bits.Mask

exception Device_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Device_error s)) fmt
let fail_str s = raise (Device_error s)

(* {1 Plan representation}

   Every name the interpreter would resolve per access is resolved here
   once, to an array index ([Ok slot]) or to the exact [Device_error]
   message the interpreter would produce ([Error msg]), raised at the
   same program point. Nothing about the device is consulted at access
   time except through these plans. *)

type io_point = { io_addr : int; io_width : int }

type operand_plan =
  | P_const of Value.t  (** literals, and wildcards resolved statically *)
  | P_var of { pv_name : string; pv_slot : (int, string) result }
  | P_fail of string  (** deferred failure, e.g. unsubstituted parameter *)

type assignment_plan =
  | P_set_var of { av_target : (int, string) result; av_value : operand_plan }
  | P_set_struct of {
      as_target : (int, string) result;
      as_fields : (string * (int, string) result * operand_plan) list;
    }

type action_plan = { ap_count : int; ap_items : assignment_plan list }

type cond_plan = {
  cp_name : string;
  cp_var : (int, string) result;
  cp_negated : bool;
  cp_value : operand_plan;
}

type serial_item_plan = {
  sip_cond : cond_plan option;
  sip_reg : (int, string) result;
}

type serial_plan = serial_item_plan list option

type reg_plan = {
  rp_reg : Ir.reg;
  rp_slot : int;  (** cache slot; -1 = runtime template instance *)
  rp_read : (io_point, string) result option;
  rp_write : (io_point, string) result option;
  rp_keep : int;  (** mask's covered-bit set *)
  rp_force : int;  (** mask's forced-bit value *)
  rp_base_keep : int;  (** cached bits surviving a sibling rewrite *)
  rp_base_neutral : int;  (** trigger-neutral bits of a sibling rewrite *)
  rp_refresh_any : bool;  (** volatile sibling forces a re-read (no exclusions) *)
  rp_pre : action_plan;
  rp_post : action_plan;
  rp_set : action_plan;
  rp_counters : reg_counters option;  (** with a registry only *)
}

and reg_counters = { rc_reads : Metrics.Counter.t; rc_writes : Metrics.Counter.t }

type gather_chunk = { gc_reg : (int, string) result; gc_ranges : (int * int) list }

type scatter_piece = {
  sp_slot : int;
  sp_hi : int;
  sp_lo : int;
  sp_src_hi : int;
  sp_src_lo : int;
}

type write_reg = { wr_rp : reg_plan; wr_refresh : bool }

type field_route = { fr_sname : string; fr_slot : int option }
type route = R_standalone | R_field of field_route

type var_plan = {
  vp_var : Ir.var;
  vp_gather : gather_chunk list;
  vp_scatter : scatter_piece list;
  vp_regs : (write_reg list, string) result;  (** distinct, chunk order *)
  vp_must_io : bool;  (** volatile or read trigger *)
  vp_route : route;
  vp_serial : serial_plan;
  vp_pre : action_plan;
  vp_post : action_plan;
  vp_set : action_plan;
  vp_block : (int, string) result;  (** block-capable register slot *)
  vp_k_read : string;  (** precomputed span keys: "<label>/var:<name>:..." *)
  vp_k_write : string;
  vp_k_bread : string;
  vp_k_bwrite : string;
}

type struct_plan = {
  st_strct : Ir.strct;
  st_regs : (write_reg list, string) result;
  st_fields : (string * (int, string) result) list;
  st_serial : serial_plan;
  st_k_read : string;  (** precomputed span keys *)
  st_k_write : string;
}

(* The compile environment survives in [t] so parameterized-register
   instances can be compiled (and memoized) on first use. *)
type cenv = {
  ce_device : Ir.device;
  ce_bases : (string * int) list;
  ce_label : string;
  ce_metrics : Metrics.t option;
  ce_var_idx : (string, int) Hashtbl.t;
  ce_reg_idx : (string, int) Hashtbl.t;
  ce_struct_idx : (string, int) Hashtbl.t;
}

type instance_counters = {
  ic_reads : Metrics.Counter.t;  (* io.<label>.reg_reads *)
  ic_writes : Metrics.Counter.t;
  ic_hits : Metrics.Counter.t;  (* cache.<label>.hits *)
  ic_misses : Metrics.Counter.t;
}

type t = {
  env : cenv;
  bus : Bus.t;
  debug : bool;
  label : string;
  ctx : Ctx.t option;
  trace : Trace.t option;  (* the context's, read on every access *)
  profile : Profile.t option;
  regs : reg_plan array;
  vars : var_plan array;
  structs : struct_plan array;
  counters : instance_counters option;  (** with a registry only *)
  (* Mutable per-instance state, slot-indexed. *)
  cache : int array;
  cache_valid : bool array;
  simages : int array array;  (** struct slot -> reg slot -> image *)
  spresent : bool array array;
  sactive : bool array;  (** struct has a cache entry at all *)
  mem : Value.t option array;  (** memory-cell variables, by var slot *)
  tmpl_memo : (string, reg_plan) Hashtbl.t;
  rt_raw : (string, int) Hashtbl.t;  (** cache for template instances *)
  mutable depth : int;
}

let device t = t.env.ce_device
let ctx t = t.ctx

(* {1 Compilation} *)

let resolve_var env name =
  match Hashtbl.find_opt env.ce_var_idx name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown device variable %s" name)

let resolve_reg env name =
  match Hashtbl.find_opt env.ce_reg_idx name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown register %s" name)

let resolve_struct env name =
  match Hashtbl.find_opt env.ce_struct_idx name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown structure %s" name)

(* Mirrors the interpreter's evaluation order: the bases lookup fails
   before the port-width lookup. *)
let resolve_point env (lp : Ir.located_port) =
  match List.assoc_opt lp.lp_port env.ce_bases with
  | None -> Error (Printf.sprintf "port %s has no base address" lp.lp_port)
  | Some base -> (
      match Ir.find_port env.ce_device lp.lp_port with
      | None -> Error (Printf.sprintf "unknown port %s" lp.lp_port)
      | Some p -> Ok { io_addr = base + lp.lp_offset; io_width = p.p_width })

let var_type env name =
  match Ir.find_var env.ce_device name with
  | Some v -> v.Ir.v_type
  | None -> Dtype.Bool (* placeholder; the target failure fires first *)

let compile_operand env (o : Ir.operand) ~(target_type : Dtype.t) =
  match o with
  | Ir.O_int n -> P_const (Value.Int n)
  | Ir.O_bool b -> P_const (Value.Bool b)
  | Ir.O_enum name -> P_const (Value.Enum name)
  | Ir.O_any -> (
      match target_type with
      | Dtype.Bool -> P_const (Value.Bool false)
      | Dtype.Int _ -> P_const (Value.Int 0)
      | Dtype.Int_set { values; _ } ->
          P_const (Value.Int (match values with v :: _ -> v | [] -> 0))
      | Dtype.Enum cases -> (
          match
            List.find_opt (fun c -> Dtype.writable_case c.Dtype.dir) cases
          with
          | Some c -> P_const (Value.Enum c.case_name)
          | None -> P_fail "no writable case for wildcard value"))
  | Ir.O_var src -> P_var { pv_name = src; pv_slot = resolve_var env src }
  | Ir.O_param p ->
      P_fail (Printf.sprintf "unsubstituted register parameter %s" p)

let compile_action env (a : Ir.action) =
  {
    ap_count = List.length a;
    ap_items =
      List.map
        (fun (assignment : Ir.assignment) ->
          match assignment with
          | Ir.Set_var { target; value } ->
              P_set_var
                {
                  av_target = resolve_var env target;
                  av_value =
                    compile_operand env value ~target_type:(var_type env target);
                }
          | Ir.Set_struct { target; fields } ->
              P_set_struct
                {
                  as_target = resolve_struct env target;
                  as_fields =
                    List.map
                      (fun (f, o) ->
                        ( f,
                          resolve_var env f,
                          compile_operand env o ~target_type:(var_type env f) ))
                      fields;
                })
        a;
  }

let compile_serial env (items : Ir.serial_item list option) : serial_plan =
  Option.map
    (List.map (fun (it : Ir.serial_item) ->
         {
           sip_cond =
             Option.map
               (fun (c : Ir.serial_cond) ->
                 {
                   cp_name = c.sc_var;
                   cp_var = resolve_var env c.sc_var;
                   cp_negated = c.sc_negated;
                   cp_value =
                     compile_operand env c.sc_value
                       ~target_type:(var_type env c.sc_var);
                 })
               it.si_cond;
           sip_reg = resolve_reg env it.si_reg;
         }))
    items

(* Fold the interpreter's compose_base neutral pass into two masks:
   base = (cached land keep) lor neutral. Each neutral sibling clears
   its bits in the cached image, then sets its neutral pattern. *)
let base_masks device (r : Ir.reg) =
  List.fold_left
    (fun (keep, neutral) (clear, set) ->
      (keep land lnot clear, neutral land lnot clear lor set))
    (-1, 0)
    (Layout.neutral_fields device r)

(* A register rewrite must re-read the register first when a volatile
   sibling (other than the variables being rewritten) has bits in it
   that the device may have changed behind the cache — unless a read
   has side effects (read trigger), in which case the cached/zero bits
   are the only safe base. *)
let refresh_excluding device (r : Ir.reg) ~exclude =
  Ir.reg_readable r
  &&
  let sibs = Ir.vars_of_reg device r.Ir.r_name in
  List.exists
    (fun (v : Ir.var) ->
      v.v_behaviour.b_volatile && not (List.mem v.v_name exclude))
    sibs
  && not
       (List.exists
          (fun (v : Ir.var) ->
            match v.v_behaviour.b_trigger with
            | Some { tr_read = true; _ } -> true
            | Some _ | None -> false)
          sibs)

let compile_reg env ~slot (r : Ir.reg) =
  let base_keep, base_neutral = base_masks env.ce_device r in
  {
    rp_reg = r;
    rp_slot = slot;
    rp_read = Option.map (resolve_point env) r.r_read;
    rp_write = Option.map (resolve_point env) r.r_write;
    rp_keep = Mask.covered_value r.r_mask;
    rp_force = Mask.forced_value r.r_mask;
    rp_base_keep = base_keep;
    rp_base_neutral = base_neutral;
    rp_refresh_any = refresh_excluding env.ce_device r ~exclude:[];
    rp_pre = compile_action env r.r_pre;
    rp_post = compile_action env r.r_post;
    rp_set = compile_action env r.r_set;
    rp_counters =
      Option.map
        (fun m ->
          let name suffix = "reg." ^ env.ce_label ^ "." ^ r.r_name ^ suffix in
          {
            rc_reads = Metrics.Counter.make m (name ".reads");
            rc_writes = Metrics.Counter.make m (name ".writes");
          })
        env.ce_metrics;
  }

(* Distinct chunk registers in order, failing like regs_in_chunk_order:
   the first unknown register wins. *)
let write_regs env regs ~exclude (chunk_regs : string list) =
  let seen = Hashtbl.create 4 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest ->
        if Hashtbl.mem seen name then go acc rest
        else (
          Hashtbl.add seen name ();
          match resolve_reg env name with
          | Error m -> Error m
          | Ok i ->
              let rp = regs.(i) in
              let wr =
                {
                  wr_rp = rp;
                  wr_refresh = refresh_excluding env.ce_device rp.rp_reg ~exclude;
                }
              in
              go (wr :: acc) rest)
  in
  go [] chunk_regs

let compile_var env regs (v : Ir.var) =
  let vp_gather =
    List.map
      (fun (c : Ir.chunk) ->
        { gc_reg = resolve_reg env c.c_reg; gc_ranges = c.c_ranges })
      v.v_chunks
  in
  let vp_scatter =
    List.map
      (fun (p : Layout.piece) ->
        {
          sp_slot = Result.value (resolve_reg env p.reg) ~default:(-1);
          sp_hi = p.lo + p.width - 1;
          sp_lo = p.lo;
          sp_src_hi = p.shift + p.width - 1;
          sp_src_lo = p.shift;
        })
      (Layout.pieces v)
  in
  let vp_regs =
    write_regs env regs ~exclude:[ v.v_name ]
      (List.map (fun (c : Ir.chunk) -> c.c_reg) v.v_chunks)
  in
  let vp_route =
    match v.v_struct with
    | None -> R_standalone
    | Some sname ->
        R_field
          { fr_sname = sname; fr_slot = Hashtbl.find_opt env.ce_struct_idx sname }
  in
  {
    vp_var = v;
    vp_gather;
    vp_scatter;
    vp_regs;
    vp_must_io = Layout.fresh v;
    vp_route;
    vp_serial = compile_serial env v.v_serial;
    vp_pre = compile_action env v.v_pre;
    vp_post = compile_action env v.v_post;
    vp_set = compile_action env v.v_set;
    vp_block =
      Result.bind (Layout.block_reg env.ce_device v) (fun r ->
          resolve_reg env r.Ir.r_name);
    vp_k_read = env.ce_label ^ "/var:" ^ v.v_name ^ ":read";
    vp_k_write = env.ce_label ^ "/var:" ^ v.v_name ^ ":write";
    vp_k_bread = env.ce_label ^ "/var:" ^ v.v_name ^ ":block_read";
    vp_k_bwrite = env.ce_label ^ "/var:" ^ v.v_name ^ ":block_write";
  }

let compile_struct env regs (s : Ir.strct) =
  let st_regs =
    (* The interpreter's structure registers: fields in order, each
       field's chunk registers, deduplicated; an unknown field fails
       first. *)
    let rec fields acc = function
      | [] -> write_regs env regs ~exclude:s.s_fields (List.rev acc)
      | fname :: rest -> (
          match Ir.find_var env.ce_device fname with
          | None -> Error (Printf.sprintf "unknown device variable %s" fname)
          | Some v ->
              fields
                (List.rev_append
                   (List.map (fun (c : Ir.chunk) -> c.c_reg) v.v_chunks)
                   acc)
                rest)
    in
    fields [] s.s_fields
  in
  {
    st_strct = s;
    st_regs;
    st_fields = List.map (fun f -> (f, resolve_var env f)) s.s_fields;
    st_serial = compile_serial env s.s_serial;
    st_k_read = env.ce_label ^ "/struct:" ^ s.s_name ^ ":read";
    st_k_write = env.ce_label ^ "/struct:" ^ s.s_name ^ ":write";
  }

let compile ?(debug = false) ~label ?ctx (device : Ir.device) ~bus ~bases =
  let trace, metrics, profile =
    match ctx with
    | Some (c : Ctx.t) -> (c.trace, c.metrics, c.profile)
    | None -> (None, None, None)
  in
  List.iter
    (fun (p : Ir.port) ->
      if not (List.mem_assoc p.p_name bases) then
        fail "port %s has no base address" p.p_name)
    device.Ir.d_ports;
  let index names =
    let h = Hashtbl.create 17 in
    List.iteri (fun i n -> if not (Hashtbl.mem h n) then Hashtbl.add h n i) names;
    h
  in
  let env =
    {
      ce_device = device;
      ce_bases = bases;
      ce_label = label;
      ce_metrics = metrics;
      ce_var_idx = index (List.map (fun (v : Ir.var) -> v.v_name) device.d_vars);
      ce_reg_idx = index (List.map (fun (r : Ir.reg) -> r.r_name) device.d_regs);
      ce_struct_idx =
        index (List.map (fun (s : Ir.strct) -> s.s_name) device.d_structs);
    }
  in
  let regs =
    Array.of_list (List.mapi (fun i r -> compile_reg env ~slot:i r) device.d_regs)
  in
  let vars = Array.of_list (List.map (compile_var env regs) device.d_vars) in
  let structs =
    Array.of_list (List.map (compile_struct env regs) device.d_structs)
  in
  let nregs = Array.length regs and nstructs = Array.length structs in
  {
    env;
    bus;
    debug;
    label;
    ctx;
    trace;
    profile;
    regs;
    vars;
    structs;
    counters =
      Option.map
        (fun m ->
          let c = Metrics.Counter.make m in
          {
            ic_reads = c ("io." ^ label ^ ".reg_reads");
            ic_writes = c ("io." ^ label ^ ".reg_writes");
            ic_hits = c ("cache." ^ label ^ ".hits");
            ic_misses = c ("cache." ^ label ^ ".misses");
          })
        metrics;
    cache = Array.make (max nregs 1) 0;
    cache_valid = Array.make (max nregs 1) false;
    simages = Array.init (max nstructs 1) (fun _ -> Array.make (max nregs 1) 0);
    spresent =
      Array.init (max nstructs 1) (fun _ -> Array.make (max nregs 1) false);
    sactive = Array.make (max nstructs 1) false;
    mem = Array.make (max (Array.length vars) 1) None;
    tmpl_memo = Hashtbl.create 4;
    rt_raw = Hashtbl.create 4;
    depth = 0;
  }

(* {1 Observability hooks} *)

let note_reg_io t (rp : reg_plan) ~write raw =
  (match (t.counters, rp.rp_counters) with
  | Some ic, Some rc ->
      if write then begin
        Metrics.Counter.incr ic.ic_writes;
        Metrics.Counter.incr rc.rc_writes
      end
      else begin
        Metrics.Counter.incr ic.ic_reads;
        Metrics.Counter.incr rc.rc_reads
      end
  | _ -> ());
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (if write then
           Trace.Reg_write { dev = t.label; reg = rp.rp_reg.Ir.r_name; raw }
         else Trace.Reg_read { dev = t.label; reg = rp.rp_reg.Ir.r_name; raw })
  | None -> ()

let note_cache t reg_name ~hit =
  (match t.counters with
  | Some ic -> Metrics.Counter.incr (if hit then ic.ic_hits else ic.ic_misses)
  | None -> ());
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (if hit then Trace.Cache_hit { dev = t.label; reg = reg_name }
         else Trace.Cache_miss { dev = t.label; reg = reg_name })
  | None -> ()

let note_serialized t ~owner (order : reg_plan list) =
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (Trace.Serialized
           {
             dev = t.label;
             owner;
             order = List.map (fun rp -> rp.rp_reg.Ir.r_name) order;
           })
  | None -> ()

let note_var_read t name =
  match t.trace with
  | Some tr -> Trace.emit tr (Trace.Var_read { dev = t.label; var = name })
  | None -> ()

let note_var_write t name regs =
  match t.trace with
  | Some tr ->
      Trace.emit tr (Trace.Var_write { dev = t.label; var = name; regs })
  | None -> ()

let note_struct_write t name fields regs =
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (Trace.Struct_write { dev = t.label; strct = name; fields; regs })
  | None -> ()

(* {1 Cache primitives} *)

let cache_store t (rp : reg_plan) raw =
  if rp.rp_slot >= 0 then begin
    t.cache.(rp.rp_slot) <- raw;
    t.cache_valid.(rp.rp_slot) <- true
  end
  else Hashtbl.replace t.rt_raw rp.rp_reg.Ir.r_name raw

let cached t (rp : reg_plan) =
  if rp.rp_slot >= 0 then
    if t.cache_valid.(rp.rp_slot) then Some t.cache.(rp.rp_slot) else None
  else Hashtbl.find_opt t.rt_raw rp.rp_reg.Ir.r_name

let invalidate_cache t =
  Array.fill t.cache_valid 0 (Array.length t.cache_valid) false;
  Array.fill t.sactive 0 (Array.length t.sactive) false;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) t.spresent;
  Hashtbl.reset t.rt_raw;
  match t.trace with
  | Some tr -> Trace.emit tr (Trace.Cache_invalidated { dev = t.label })
  | None -> ()

let cached_raw t reg =
  match Hashtbl.find_opt t.env.ce_reg_idx reg with
  | Some i -> if t.cache_valid.(i) then Some t.cache.(i) else None
  | None -> Hashtbl.find_opt t.rt_raw reg

let ok_point = function Ok (p : io_point) -> p | Error m -> fail_str m

let gather t (gcs : gather_chunk list) ~(image : gather_chunk -> int) =
  ignore t;
  List.fold_left
    (fun acc gc ->
      let reg_raw = image gc in
      List.fold_left
        (fun acc (hi, lo) ->
          let w = hi - lo + 1 in
          (acc lsl w) lor Bitops.extract ~hi ~lo reg_raw)
        acc gc.gc_ranges)
    0 gcs

let scatter_into t (pieces : scatter_piece list) ~raw
    ~(images : (int * int ref) list) =
  ignore t;
  List.iter
    (fun sp ->
      match List.assoc_opt sp.sp_slot images with
      | Some img ->
          let field = Bitops.extract ~hi:sp.sp_src_hi ~lo:sp.sp_src_lo raw in
          img := Bitops.insert ~hi:sp.sp_hi ~lo:sp.sp_lo ~field !img
      | None -> ())
    pieces

(* {1 The access engine} *)

let max_action_depth = 32

let rec with_depth t f =
  if t.depth > max_action_depth then
    fail "action recursion exceeds %d levels (cyclic pre-actions?)"
      max_action_depth
  else begin
    t.depth <- t.depth + 1;
    let finally () = t.depth <- t.depth - 1 in
    match f () with
    | result ->
        finally ();
        result
    | exception e ->
        finally ();
        raise e
  end

and read_reg_io t (rp : reg_plan) =
  match rp.rp_read with
  | None -> fail "register %s is not readable" rp.rp_reg.Ir.r_name
  | Some pt ->
      run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
      let pt = ok_point pt in
      let raw = t.bus.Bus.read ~width:pt.io_width ~addr:pt.io_addr in
      run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
      cache_store t rp raw;
      note_reg_io t rp ~write:false raw;
      raw

and write_reg_io t (rp : reg_plan) raw =
  match rp.rp_write with
  | None -> fail "register %s is not writable" rp.rp_reg.Ir.r_name
  | Some pt ->
      run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
      let frame = raw land rp.rp_keep lor rp.rp_force in
      let pt = ok_point pt in
      t.bus.Bus.write ~width:pt.io_width ~addr:pt.io_addr ~value:frame;
      run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
      run_action ~what:(Trace.Set, rp.rp_reg.Ir.r_name) t rp.rp_set;
      cache_store t rp raw;
      note_reg_io t rp ~write:true raw

(* Base image for rewriting a register; see Instance.compose_base. When
   the plan says a volatile sibling's bits may be stale, the register is
   re-read first so the rewrite carries fresh device bits. *)
and compose_base t (wr : write_reg) =
  if wr.wr_refresh then ignore (read_reg_io t wr.wr_rp);
  let base = match cached t wr.wr_rp with Some raw -> raw | None -> 0 in
  (base land wr.wr_rp.rp_base_keep) lor wr.wr_rp.rp_base_neutral

and eval_operand ?self t (op : operand_plan) : Value.t =
  match op with
  | P_const v -> v
  | P_fail msg -> fail_str msg
  | P_var { pv_name; pv_slot } -> (
      match self with
      | Some (name, value) when String.equal name pv_name -> value
      | _ -> (
          match pv_slot with
          | Ok i -> get_internal t i
          | Error m -> fail_str m))

and run_action ?self ?what t (ap : action_plan) =
  if ap.ap_count = 0 then ()
  else begin
    match (t.profile, what) with
    | Some p, Some (phase, owner) ->
        let s =
          Profile.enter p
            (t.label ^ "/action:" ^ owner ^ ":" ^ Trace.phase_label phase)
        in
        (match run_action_body ?self ?what t ap with
        | () -> Profile.exit p s
        | exception e ->
            Profile.exit p s;
            raise e)
    | _ -> run_action_body ?self ?what t ap
  end

and run_action_body ?self ?what t (ap : action_plan) =
  begin
    (match (t.trace, what) with
    | Some tr, Some (phase, owner) ->
        Trace.emit tr
          (Trace.Action
             { dev = t.label; owner; phase; assignments = ap.ap_count })
    | _ -> ());
    if t.depth > max_action_depth then
      fail "action recursion exceeds %d levels (cyclic pre-actions?)"
        max_action_depth;
    t.depth <- t.depth + 1;
    Fun.protect
      ~finally:(fun () -> t.depth <- t.depth - 1)
      (fun () ->
        List.iter
          (fun (ass : assignment_plan) ->
            match ass with
            | P_set_var { av_target; av_value } ->
                let ti =
                  match av_target with Ok i -> i | Error m -> fail_str m
                in
                let v = eval_operand ?self t av_value in
                set_internal t ti v
            | P_set_struct { as_target; as_fields } ->
                let values =
                  List.map
                    (fun (fname, fres, op) ->
                      (match fres with Error m -> fail_str m | Ok _ -> ());
                      (fname, eval_operand ?self t op))
                    as_fields
                in
                let si =
                  match as_target with Ok i -> i | Error m -> fail_str m
                in
                set_struct_internal t si values)
          ap.ap_items)
  end

and get_internal t i : Value.t =
  (* The span wrappers below match the profile handle before anything
     else, so the disabled path costs one branch and a tail call — no
     closure, mirroring the note_* hooks. Spans sit on the internal
     accessors (not just the public entry points) so nested accesses
     made by actions are attributed to their own site. *)
  match t.profile with
  | None -> get_internal_body t i
  | Some p ->
      let s = Profile.enter p t.vars.(i).vp_k_read in
      (match get_internal_body t i with
      | v ->
          Profile.exit p s;
          v
      | exception e ->
          Profile.exit p s;
          raise e)

and get_internal_body t i : Value.t =
  let vp = t.vars.(i) in
  let v = vp.vp_var in
  note_var_read t v.v_name;
  if v.v_chunks = [] then
    match t.mem.(i) with
    | Some value -> value
    | None -> (
        match v.v_type with
        | Dtype.Bool -> Value.Bool false
        | Dtype.Int _ -> Value.Int 0
        | Dtype.Int_set { values; _ } ->
            Value.Int (match values with x :: _ -> x | [] -> 0)
        | Dtype.Enum _ -> fail "memory variable %s was never assigned" v.v_name)
  else
    match vp.vp_route with
    | R_field fr -> get_field t vp fr
    | R_standalone -> get_standalone t vp

and get_field t (vp : var_plan) (fr : field_route) =
  let image (gc : gather_chunk) =
    let in_struct =
      match fr.fr_slot with
      | Some si when t.sactive.(si) -> (
          match gc.gc_reg with
          | Ok ri when t.spresent.(si).(ri) -> Some t.simages.(si).(ri)
          | _ -> None)
      | _ -> None
    in
    match in_struct with
    | Some img -> img
    | None -> (
        match gc.gc_reg with
        | Ok ri when t.cache_valid.(ri) -> t.cache.(ri)
        | _ ->
            fail
              "field %s of structure %s read before the structure (call \
               get_struct first)"
              vp.vp_var.v_name fr.fr_sname)
  in
  let raw = gather t vp.vp_gather ~image in
  decode_checked t vp.vp_var raw

and get_standalone t (vp : var_plan) =
  let v = vp.vp_var in
  run_action ~what:(Trace.Pre, v.v_name) t vp.vp_pre;
  let image (gc : gather_chunk) =
    match gc.gc_reg with
    | Error m -> fail_str m
    | Ok ri ->
        let rp = t.regs.(ri) in
        if vp.vp_must_io then read_reg_io t rp
        else if t.cache_valid.(ri) then begin
          note_cache t rp.rp_reg.Ir.r_name ~hit:true;
          t.cache.(ri)
        end
        else (
          match rp.rp_read with
          | Some _ ->
              note_cache t rp.rp_reg.Ir.r_name ~hit:false;
              read_reg_io t rp
          | None ->
              fail "variable %s is write-only and has no cached value" v.v_name)
  in
  let raw = gather t vp.vp_gather ~image in
  run_action ~what:(Trace.Post, v.v_name) t vp.vp_post;
  decode_checked t v raw

and decode_checked t (v : Ir.var) raw =
  if t.debug then begin
    match Dtype.validate_read_raw v.v_type raw with
    | Ok () -> ()
    | Error msg -> fail "variable %s: %s" v.v_name msg
  end;
  match Dtype.decode v.v_type raw with
  | Ok value -> value
  | Error msg -> fail "variable %s: %s" v.v_name msg

and encode_checked (v : Ir.var) value =
  match Dtype.encode v.v_type value with
  | Ok raw -> raw
  | Error msg -> fail "variable %s: %s" v.v_name msg

and eval_serial_cond t ?self (cp : cond_plan) =
  let from_var () =
    match cp.cp_var with Ok i -> get_internal t i | Error m -> fail_str m
  in
  let actual =
    match self with
    | Some values -> (
        match List.assoc_opt cp.cp_name values with
        | Some v -> v
        | None -> from_var ())
    | None -> from_var ()
  in
  (match cp.cp_var with Error m -> fail_str m | Ok _ -> ());
  let expected = eval_operand t cp.cp_value in
  let eq = Value.equal actual expected in
  if cp.cp_negated then not eq else eq

and ordered_regs t ?self ~(serial : serial_plan) ~default () =
  match serial with
  | None -> default
  | Some items ->
      List.filter_map
        (fun (sip : serial_item_plan) ->
          let enabled =
            match sip.sip_cond with
            | None -> true
            | Some cp -> eval_serial_cond t ?self cp
          in
          if enabled then
            Some
              (match sip.sip_reg with
              | Ok ri -> t.regs.(ri)
              | Error m -> fail_str m)
          else None)
        items

and set_internal t i value =
  match t.profile with
  | None -> set_internal_body t i value
  | Some p ->
      let s = Profile.enter p t.vars.(i).vp_k_write in
      (match set_internal_body t i value with
      | () -> Profile.exit p s
      | exception e ->
          Profile.exit p s;
          raise e)

and set_internal_body t i value =
  let vp = t.vars.(i) in
  let v = vp.vp_var in
  if v.v_chunks = [] then begin
    (match Dtype.validate_write v.v_type value with
    | Ok () -> ()
    | Error msg -> fail "variable %s: %s" v.v_name msg);
    t.mem.(i) <- Some value;
    note_var_write t v.v_name []
  end
  else begin
    let raw = encode_checked v value in
    run_action ~what:(Trace.Pre, v.v_name) t vp.vp_pre;
    let wrs = match vp.vp_regs with Ok l -> l | Error m -> fail_str m in
    let images =
      List.map (fun wr -> (wr.wr_rp.rp_slot, ref (compose_base t wr))) wrs
    in
    scatter_into t vp.vp_scatter ~raw ~images;
    let default = List.map (fun wr -> wr.wr_rp) wrs in
    let order =
      ordered_regs t ~self:[ (v.v_name, value) ] ~serial:vp.vp_serial ~default
        ()
    in
    (match vp.vp_serial with
    | Some _ -> note_serialized t ~owner:v.v_name order
    | None -> ());
    (* Same emission point as the interpreter: after compose/scatter,
       right before the register writes it announces. *)
    note_var_write t v.v_name
      (List.map (fun (rp : reg_plan) -> rp.rp_reg.Ir.r_name) order);
    List.iter
      (fun (rp : reg_plan) ->
        (* List.assoc raising Not_found here matches the interpreter's
           Hashtbl.find on a serialized register foreign to the
           variable. *)
        write_reg_io t rp !(List.assoc rp.rp_slot images))
      order;
    (match vp.vp_route with
    | R_field { fr_slot = Some si; _ } when t.sactive.(si) ->
        List.iter
          (fun (slot, img) ->
            t.simages.(si).(slot) <- !img;
            t.spresent.(si).(slot) <- true)
          images
    | _ -> ());
    run_action ~self:(v.v_name, value) ~what:(Trace.Set, v.v_name) t vp.vp_set;
    run_action ~what:(Trace.Post, v.v_name) t vp.vp_post
  end

and set_struct_internal t si fields =
  match t.profile with
  | None -> set_struct_internal_body t si fields
  | Some p ->
      let s = Profile.enter p t.structs.(si).st_k_write in
      (match set_struct_internal_body t si fields with
      | () -> Profile.exit p s
      | exception e ->
          Profile.exit p s;
          raise e)

and set_struct_internal_body t si fields =
  let st = t.structs.(si) in
  let s = st.st_strct in
  List.iter
    (fun (f, _) ->
      if not (List.mem f s.s_fields) then
        fail "%s is not a field of structure %s" f s.s_name)
    fields;
  let wrs = match st.st_regs with Ok l -> l | Error m -> fail_str m in
  let images =
    List.map (fun wr -> (wr.wr_rp.rp_slot, ref (compose_base t wr))) wrs
  in
  let field_plan fname =
    match List.assoc fname st.st_fields with
    | Ok fi -> t.vars.(fi)
    | Error m -> fail_str m
  in
  let field_values =
    List.map
      (fun fname ->
        let fvp = field_plan fname in
        match List.assoc_opt fname fields with
        | Some value ->
            ignore (encode_checked fvp.vp_var value);
            (fname, value)
        | None -> (
            match get_cached_field t fvp with
            | Some value -> (fname, value)
            | None ->
                fail "structure %s: field %s has no supplied or cached value"
                  s.s_name fname))
      s.s_fields
  in
  List.iter
    (fun (fname, value) ->
      let fvp = field_plan fname in
      let raw = encode_checked fvp.vp_var value in
      scatter_into t fvp.vp_scatter ~raw ~images)
    field_values;
  let default = List.map (fun wr -> wr.wr_rp) wrs in
  let order =
    ordered_regs t ~self:field_values ~serial:st.st_serial ~default ()
  in
  (match st.st_serial with
  | Some _ -> note_serialized t ~owner:s.s_name order
  | None -> ());
  note_struct_write t s.s_name s.s_fields
    (List.map (fun (rp : reg_plan) -> rp.rp_reg.Ir.r_name) order);
  List.iter
    (fun (rp : reg_plan) ->
      let image =
        match List.assoc_opt rp.rp_slot images with
        | Some img -> !img
        | None ->
            (* A serialized register carrying no field of this
               structure: rebuild it from cache and neutrals. *)
            compose_base t { wr_rp = rp; wr_refresh = rp.rp_refresh_any }
      in
      write_reg_io t rp image)
    order;
  List.iter
    (fun (fname, value) ->
      let fvp = field_plan fname in
      if List.exists (fun (f, _) -> String.equal f fname) fields then
        run_action ~self:(fname, value) ~what:(Trace.Set, fname) t fvp.vp_set)
    field_values;
  t.sactive.(si) <- true;
  List.iter
    (fun (slot, img) ->
      t.simages.(si).(slot) <- !img;
      t.spresent.(si).(slot) <- true)
    images

and get_cached_field t (vp : var_plan) : Value.t option =
  let image (gc : gather_chunk) : int option =
    let in_struct =
      match vp.vp_route with
      | R_field { fr_slot = Some osi; _ } when t.sactive.(osi) -> (
          match gc.gc_reg with
          | Ok ri when t.spresent.(osi).(ri) -> Some t.simages.(osi).(ri)
          | _ -> None)
      | _ -> None
    in
    match in_struct with
    | Some img -> Some img
    | None -> (
        match gc.gc_reg with
        | Ok ri when t.cache_valid.(ri) -> Some t.cache.(ri)
        | _ -> None)
  in
  let complete =
    List.for_all (fun gc -> Option.is_some (image gc)) vp.vp_gather
  in
  if not complete then None
  else
    let raw =
      gather t vp.vp_gather ~image:(fun gc ->
          match image gc with Some x -> x | None -> 0)
    in
    match Dtype.decode vp.vp_var.v_type raw with
    | Ok v -> Some v
    | Error _ -> None

let get_struct_slot t si (st : struct_plan) =
  let wrs = match st.st_regs with Ok l -> l | Error m -> fail_str m in
  let read =
    List.map (fun wr -> (wr.wr_rp.rp_slot, read_reg_io t wr.wr_rp)) wrs
  in
  (* Replace the whole entry only after every read succeeded, like the
     interpreter's atomic Hashtbl.replace of a fresh table. *)
  Array.fill t.spresent.(si) 0 (Array.length t.spresent.(si)) false;
  List.iter
    (fun (slot, raw) ->
      t.simages.(si).(slot) <- raw;
      t.spresent.(si).(slot) <- true)
    read;
  t.sactive.(si) <- true

let get_struct t name =
  let si =
    match Hashtbl.find_opt t.env.ce_struct_idx name with
    | Some i -> i
    | None -> fail "unknown structure %s" name
  in
  let st = t.structs.(si) in
  if st.st_strct.s_private then fail "structure %s is private" name;
  match t.profile with
  | None -> get_struct_slot t si st
  | Some p -> Profile.span p st.st_k_read (fun () -> get_struct_slot t si st)

(* Block and indexed entry points pair the depth guard with a span in
   one step; disabled, this is [with_depth] plus one branch (the inner
   closure below is the one [with_depth] always took). *)
let with_depth_profiled t key f =
  match t.profile with
  | None -> with_depth t f
  | Some p -> Profile.span p key (fun () -> with_depth t f)

(* {1 Public entry points} *)

type handle = int

let handle t name =
  match Hashtbl.find_opt t.env.ce_var_idx name with
  | None -> fail "unknown device variable %s" name
  | Some i ->
      if t.vars.(i).vp_var.v_private then
        fail "variable %s is private and not part of the device interface" name
      else i

let get_h t h = with_depth t (fun () -> get_internal t h)
let set_h t h value = with_depth t (fun () -> set_internal t h value)
let get t name = get_h t (handle t name)
let set t name value = set_h t (handle t name) value

let set_struct t name fields =
  let si =
    match Hashtbl.find_opt t.env.ce_struct_idx name with
    | Some i -> i
    | None -> fail "unknown structure %s" name
  in
  if t.structs.(si).st_strct.s_private then fail "structure %s is private" name;
  with_depth t (fun () -> set_struct_internal t si fields)

(* {1 Block transfers} *)

let block_plan t name =
  let i =
    match Hashtbl.find_opt t.env.ce_var_idx name with
    | Some i -> i
    | None -> fail "unknown device variable %s" name
  in
  let vp = t.vars.(i) in
  match vp.vp_block with
  | Ok ri -> (vp, t.regs.(ri))
  | Error m -> fail_str m

let read_wide t name ~scale =
  let vp, rp = block_plan t name in
  match rp.rp_read with
  | None -> fail "register %s is not readable" rp.rp_reg.Ir.r_name
  | Some pt ->
      with_depth_profiled t vp.vp_k_read (fun () ->
          run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
          note_var_read t name;
          let pt = ok_point pt in
          let v = t.bus.Bus.read ~width:(scale * pt.io_width) ~addr:pt.io_addr in
          run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
          v)

let write_wide t name ~scale value =
  let vp, rp = block_plan t name in
  match rp.rp_write with
  | None -> fail "register %s is not writable" rp.rp_reg.Ir.r_name
  | Some pt ->
      with_depth_profiled t vp.vp_k_write (fun () ->
          run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
          note_var_write t name [ rp.rp_reg.Ir.r_name ];
          let pt = ok_point pt in
          t.bus.Bus.write ~width:(scale * pt.io_width) ~addr:pt.io_addr ~value;
          run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
          run_action ~what:(Trace.Set, rp.rp_reg.Ir.r_name) t rp.rp_set)

let read_block_wide t name ~scale ~count =
  let vp, rp = block_plan t name in
  match rp.rp_read with
  | None -> fail "register %s is not readable" rp.rp_reg.Ir.r_name
  | Some pt ->
      with_depth_profiled t vp.vp_k_bread (fun () ->
          run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
          note_var_read t name;
          let into = Array.make count 0 in
          let pt = ok_point pt in
          t.bus.Bus.read_block ~width:(scale * pt.io_width) ~addr:pt.io_addr
            ~into;
          run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
          into)

let write_block_wide t name ~scale data =
  let vp, rp = block_plan t name in
  match rp.rp_write with
  | None -> fail "register %s is not writable" rp.rp_reg.Ir.r_name
  | Some pt ->
      with_depth_profiled t vp.vp_k_bwrite (fun () ->
          run_action ~what:(Trace.Pre, rp.rp_reg.Ir.r_name) t rp.rp_pre;
          note_var_write t name [ rp.rp_reg.Ir.r_name ];
          let pt = ok_point pt in
          t.bus.Bus.write_block ~width:(scale * pt.io_width) ~addr:pt.io_addr
            ~from:data;
          run_action ~what:(Trace.Post, rp.rp_reg.Ir.r_name) t rp.rp_post;
          run_action ~what:(Trace.Set, rp.rp_reg.Ir.r_name) t rp.rp_set)

(* {1 Indexed (parameterized) register access}

   Argument validation runs on every call, exactly like the
   interpreter; the compiled plan of each distinct instance is
   memoized. *)

let indexed_plan t ~template ~args =
  match Ir.find_template t.env.ce_device template with
  | None -> fail "unknown register template %s" template
  | Some tp ->
      if List.length args <> List.length tp.t_params then
        fail "template %s expects %d argument(s)" template
          (List.length tp.t_params);
      List.iter2
        (fun (pname, legal) arg ->
          if not (List.mem arg legal) then
            fail "argument %d is outside the range of parameter %s of %s" arg
              pname template)
        tp.t_params args;
      let name =
        Printf.sprintf "%s(%s)" template
          (String.concat "," (List.map string_of_int args))
      in
      (match Hashtbl.find_opt t.tmpl_memo name with
      | Some rp -> rp
      | None ->
          let bindings = List.combine (List.map fst tp.t_params) args in
          let subst (a : Ir.action) : Ir.action =
            List.map
              (fun (assignment : Ir.assignment) ->
                let subst_op (o : Ir.operand) =
                  match o with
                  | Ir.O_param p -> (
                      match List.assoc_opt p bindings with
                      | Some v -> Ir.O_int v
                      | None -> o)
                  | _ -> o
                in
                match assignment with
                | Ir.Set_var { target; value } ->
                    Ir.Set_var { target; value = subst_op value }
                | Ir.Set_struct { target; fields } ->
                    Ir.Set_struct
                      {
                        target;
                        fields = List.map (fun (f, o) -> (f, subst_op o)) fields;
                      })
              a
          in
          let reg =
            {
              Ir.r_name = name;
              r_size = tp.t_size;
              r_read = tp.t_read;
              r_write = tp.t_write;
              r_mask = tp.t_mask;
              r_pre = subst tp.t_pre;
              r_post = subst tp.t_post;
              r_set = subst tp.t_set;
              r_from_template = Some (template, args);
              r_loc = tp.t_loc;
            }
          in
          let rp = compile_reg t.env ~slot:(-1) reg in
          Hashtbl.add t.tmpl_memo name rp;
          rp)

let read_indexed t ~template ~args =
  let rp = indexed_plan t ~template ~args in
  match t.profile with
  | None -> with_depth t (fun () -> read_reg_io t rp)
  | Some p ->
      Profile.span p
        (t.label ^ "/template:" ^ template ^ ":read")
        (fun () -> with_depth t (fun () -> read_reg_io t rp))

let write_indexed t ~template ~args raw =
  let rp = indexed_plan t ~template ~args in
  match t.profile with
  | None -> with_depth t (fun () -> write_reg_io t rp raw)
  | Some p ->
      Profile.span p
        (t.label ^ "/template:" ^ template ^ ":write")
        (fun () -> with_depth t (fun () -> write_reg_io t rp raw))
