module Ir = Devil_ir.Ir
module Dtype = Devil_ir.Dtype
module Value = Devil_ir.Value
module Layout = Devil_ir.Layout
module Mask = Devil_bits.Mask
module Bitpat = Devil_bits.Bitpat
module Bitops = Devil_bits.Bitops

type ctx = { buf : Buffer.t; device : Ir.device }

let add ctx fmt = Printf.ksprintf (Buffer.add_string ctx.buf) fmt

let reg_cache r = Printf.sprintf "cache_%s" r
let reg_valid r = Printf.sprintf "valid_%s" r
let mem_cell v = Printf.sprintf "mem_%s" v
let scache s r = Printf.sprintf "scache_%s_%s" s r
let svalid s = Printf.sprintf "svalid_%s" s

let const_name (v : Ir.var) case =
  Printf.sprintf "const_%s_%s" (String.lowercase_ascii v.v_name)
    (String.lowercase_ascii case)

let port_width ctx (lp : Ir.located_port) =
  match Ir.find_port ctx.device lp.lp_port with
  | Some p -> p.p_width
  | None -> 8

let addr_expr (lp : Ir.located_port) =
  if lp.lp_offset = 0 then Printf.sprintf "base_%s" lp.lp_port
  else Printf.sprintf "base_%s + %d" lp.lp_port lp.lp_offset

(* The masked frame write of [raw] (paper §2.1). *)
let frame_write ctx (lp : Ir.located_port) (m : Mask.t) =
  Printf.sprintf "Env.write ~width:%d ~addr:(%s) ~value:((raw land %d) lor %d)"
    (port_width ctx lp) (addr_expr lp) (Mask.covered_value m)
    (Mask.forced_value m)

(* {1 Value rendering} *)

let render_const ctx (target : Ir.var) (value : Value.t) =
  ignore ctx;
  match (value, target.v_type) with
  | Value.Int n, _ -> string_of_int n
  | Value.Bool b, _ -> if b then "1" else "0"
  | Value.Enum name, ty -> (
      match Dtype.find_case ty name with
      | Some c -> (
          match Bitpat.value c.pattern with
          | Some raw -> string_of_int raw
          | None -> "0")
      | None -> "0")

let getter name = Printf.sprintf "(get_%s ())" name

let render_operand ctx (target : Ir.var) (o : Ir.operand) =
  match o with
  | Ir.O_int n -> string_of_int n
  | Ir.O_bool b -> if b then "1" else "0"
  | Ir.O_enum name -> render_const ctx target (Value.Enum name)
  | Ir.O_any -> "0"
  | Ir.O_var src -> getter src
  | Ir.O_param p -> Printf.sprintf "%s" p

let label f = String.lowercase_ascii f

let emit_action ctx ~indent (a : Ir.action) =
  List.iter
    (fun (assignment : Ir.assignment) ->
      match assignment with
      | Ir.Set_var { target; value } -> (
          match Ir.find_var ctx.device target with
          | Some tv ->
              add ctx "%sset_%s %s;\n" indent target
                (render_operand ctx tv value)
          | None -> ())
      | Ir.Set_struct { target; fields } -> (
          match Ir.find_struct ctx.device target with
          | Some s ->
              let args =
                String.concat " "
                  (List.map
                     (fun fname ->
                       match List.assoc_opt fname fields with
                       | Some o -> (
                           match Ir.find_var ctx.device fname with
                           | Some fv ->
                               Printf.sprintf "~%s:(%s)" (label fname)
                                 (render_operand ctx fv o)
                           | None -> Printf.sprintf "~%s:0" (label fname))
                       | None ->
                           Printf.sprintf "~%s:%s" (label fname) (getter fname))
                     s.s_fields)
              in
              add ctx "%sset_%s %s;\n" indent target args
          | None -> ()))
    a

(* {1 Register accessors} *)

let emit_reg ctx (r : Ir.reg) =
  (match r.r_write with
  | Some lp ->
      add ctx "  and write_%s raw =\n" r.r_name;
      emit_action ctx ~indent:"    " r.r_pre;
      add ctx "    %s;\n" (frame_write ctx lp r.r_mask);
      emit_action ctx ~indent:"    " r.r_post;
      emit_action ctx ~indent:"    " r.r_set;
      add ctx "    %s := raw;\n" (reg_cache r.r_name);
      add ctx "    %s := true\n" (reg_valid r.r_name)
  | None -> ());
  match r.r_read with
  | Some lp ->
      add ctx "  and read_%s () =\n" r.r_name;
      emit_action ctx ~indent:"    " r.r_pre;
      add ctx "    let raw = Env.read ~width:%d ~addr:(%s) in\n"
        (port_width ctx lp) (addr_expr lp);
      emit_action ctx ~indent:"    " r.r_post;
      add ctx "    %s := raw;\n" (reg_cache r.r_name);
      add ctx "    %s := true;\n" (reg_valid r.r_name);
      add ctx "    raw\n"
  | None -> ()

(* {1 Bit plumbing} *)

let gather_expr (v : Ir.var) ~(reg_expr : string -> string) =
  String.concat " lor "
    (List.map
       (fun (p : Layout.piece) ->
         Printf.sprintf "(((%s lsr %d) land %d) lsl %d)" (reg_expr p.reg) p.lo
           (Bitops.width_mask p.width) p.shift)
       (Layout.pieces v))

let emit_scatter ctx (v : Ir.var) ~value_expr =
  List.iter
    (fun (p : Layout.piece) ->
      add ctx
        "    img_%s := (!(img_%s) land (lnot %d)) lor ((((%s) lsr %d) land %d) \
         lsl %d);\n"
        p.reg p.reg (Layout.field_mask p) value_expr p.shift
        (Bitops.width_mask p.width) p.lo)
    (Layout.pieces v)

(* One image per register: cached bits if valid, with every
   write-trigger sibling forced to its neutral. *)
let emit_images ctx regs =
  List.iter
    (fun (r : Ir.reg) ->
      add ctx "    let img_%s = ref (%s) in\n" r.r_name
        (List.fold_left
           (fun expr (clear, set) ->
             Printf.sprintf "(((%s) land (lnot %d)) lor %d)" expr clear set)
           (Printf.sprintf "(if !(%s) then !(%s) else 0)" (reg_valid r.r_name)
              (reg_cache r.r_name))
           (Layout.neutral_fields ctx.device r)))
    regs

(* The register writes of a setter; [actual] renders the variable a
   serialization condition tests. *)
let emit_writes ctx ~actual order =
  List.iter
    (fun ((cond : Ir.serial_cond option), (r : Ir.reg)) ->
      match cond with
      | None -> add ctx "    write_%s !(img_%s);\n" r.r_name r.r_name
      | Some c ->
          let expected =
            match Ir.find_var ctx.device c.sc_var with
            | Some cv -> render_operand ctx cv c.sc_value
            | None -> "0"
          in
          add ctx "    if %s %s %s then write_%s !(img_%s);\n"
            (actual c.sc_var)
            (if c.sc_negated then "<>" else "=")
            expected r.r_name r.r_name)
    order

(* The set actions of the variable [name], whose new value is the
   expression [self]. *)
let emit_set_action ctx ~name ~self (a : Ir.action) =
  List.iter
    (fun (assignment : Ir.assignment) ->
      match assignment with
      | Ir.Set_var { target; value } ->
          let expr =
            match value with
            | Ir.O_var src when String.equal src name -> self
            | o -> (
                match Ir.find_var ctx.device target with
                | Some tv -> render_operand ctx tv o
                | None -> "0")
          in
          add ctx "    set_%s %s;\n" target expr
      | Ir.Set_struct _ -> ())
    a

(* {1 Range checks (always on)} *)

let emit_check ctx ~indent (v : Ir.var) =
  let fail cond =
    add ctx "%sif %s then failwith \"%s: value out of range\";\n" indent cond
      v.v_name
  in
  match v.v_type with
  | Dtype.Bool -> fail "v land (lnot 1) <> 0"
  | Dtype.Int { signed = false; bits } ->
      fail (Printf.sprintf "v land (lnot %d) <> 0" ((1 lsl bits) - 1))
  | Dtype.Int { signed = true; bits } ->
      fail
        (Printf.sprintf "v < %d || v > %d"
           (-(1 lsl (bits - 1)))
           ((1 lsl (bits - 1)) - 1))
  | Dtype.Int_set { values; _ } ->
      if List.length values <= 40 then
        fail
          (Printf.sprintf "not (List.mem v [%s])"
             (String.concat "; " (List.map string_of_int values)))
  | Dtype.Enum _ -> (
      match Dtype.writable_raws v.v_type with
      | [] -> ()
      | raws ->
          fail
            (Printf.sprintf "not (List.mem v [%s])"
               (String.concat "; " (List.map string_of_int raws))))

(* {1 Variable accessors} *)

let sign_adjust (v : Ir.var) expr =
  match v.v_type with
  | Dtype.Int { signed = true; bits } ->
      Printf.sprintf "(((%s) lsl %d) asr %d)" expr (63 - bits) (63 - bits)
  | _ -> expr

let emit_var_setter ctx (v : Ir.var) =
  if v.v_chunks = [] then begin
    add ctx "  and set_%s v =\n" v.v_name;
    emit_check ctx ~indent:"    " v;
    add ctx "    %s := v\n" (mem_cell v.v_name)
  end
  else begin
    let regs = Ir.regs_of_var ctx.device v in
    if List.exists Ir.reg_writable regs then begin
      add ctx "  and set_%s v =\n" v.v_name;
      emit_check ctx ~indent:"    " v;
      (match v.v_type with
      | Dtype.Int { signed = true; bits } ->
          add ctx "    let v = v land %d in\n" ((1 lsl bits) - 1)
      | _ -> ());
      emit_action ctx ~indent:"    " v.v_pre;
      emit_images ctx regs;
      emit_scatter ctx v ~value_expr:"v";
      emit_writes ctx
        (Layout.write_order ctx.device regs v.v_serial)
        ~actual:(fun name ->
          if String.equal name v.v_name then "v" else getter name);
      (* Keep the owning structure's cache coherent, like the runtime. *)
      (match v.v_struct with
      | Some sname ->
          add ctx "    if !(%s) then begin\n" (svalid sname);
          List.iter
            (fun (r : Ir.reg) ->
              add ctx "      %s := !(img_%s);\n" (scache sname r.r_name)
                r.r_name)
            regs;
          add ctx "    end;\n"
      | None -> ());
      (* Self-referencing set actions see the value just written. *)
      emit_set_action ctx ~name:v.v_name ~self:"v" v.v_set;
      emit_action ctx ~indent:"    " v.v_post;
      add ctx "    ()\n"
    end
  end

let emit_var_getter ctx (v : Ir.var) =
  add ctx "  and get_%s () =\n" v.v_name;
  if v.v_chunks = [] then add ctx "    !(%s)\n" (mem_cell v.v_name)
  else begin
    List.iter
      (fun (r : Ir.reg) ->
        let cached = Printf.sprintf "!(%s)" (reg_cache r.r_name) in
        add ctx "    let raw_%s = %s in\n" r.r_name
          (match v.v_struct with
          | Some sname ->
              (* Field stub: structure cache first, then register cache. *)
              Printf.sprintf
                "if !(%s) then !(%s) else if !(%s) then %s else failwith \
                 \"%s: structure not read\""
                (svalid sname) (scache sname r.r_name) (reg_valid r.r_name)
                cached v.v_name
          | None when not (Ir.reg_readable r) ->
              Printf.sprintf
                "if !(%s) then %s else failwith \"%s: write-only and not \
                 cached\""
                (reg_valid r.r_name) cached v.v_name
          | None when Layout.fresh v -> Printf.sprintf "read_%s ()" r.r_name
          | None ->
              Printf.sprintf "if !(%s) then %s else read_%s ()"
                (reg_valid r.r_name) cached r.r_name))
      (Ir.regs_of_var ctx.device v);
    add ctx "    %s\n"
      (sign_adjust v (gather_expr v ~reg_expr:(fun reg -> "raw_" ^ reg)))
  end

(* {1 Structures} *)

let emit_struct ctx (s : Ir.strct) =
  let regs = Layout.struct_regs ctx.device s in
  if List.for_all Ir.reg_readable regs && regs <> [] then begin
    add ctx "  and get_%s () =\n" s.s_name;
    List.iter
      (fun (r : Ir.reg) ->
        add ctx "    %s := read_%s ();\n" (scache s.s_name r.r_name) r.r_name)
      regs;
    add ctx "    %s := true\n" (svalid s.s_name)
  end;
  if List.exists Ir.reg_writable regs then begin
    let params =
      String.concat " " (List.map (fun f -> "~" ^ label f) s.s_fields)
    in
    add ctx "  and set_%s %s =\n" s.s_name params;
    let fields = List.filter_map (Ir.find_var ctx.device) s.s_fields in
    emit_images ctx regs;
    List.iter
      (fun (v : Ir.var) -> emit_scatter ctx v ~value_expr:(label v.v_name))
      fields;
    emit_writes ctx
      (Layout.write_order ctx.device regs s.s_serial)
      ~actual:(fun name ->
        if List.mem name s.s_fields then label name else getter name);
    (* Per-field set actions with the new values in scope. *)
    List.iter
      (fun (v : Ir.var) ->
        emit_set_action ctx ~name:v.v_name ~self:(label v.v_name) v.v_set)
      fields;
    List.iter
      (fun (r : Ir.reg) ->
        add ctx "    %s := !(img_%s);\n" (scache s.s_name r.r_name) r.r_name)
      regs;
    add ctx "    %s := true\n" (svalid s.s_name)
  end

(* {1 Block and template stubs} *)

let emit_block ctx (v : Ir.var) =
  match Layout.block_reg ctx.device v with
  | Error _ -> ()
  | Ok r ->
      Option.iter
        (fun lp ->
          add ctx "  and read_%s_block count =\n" v.v_name;
          emit_action ctx ~indent:"    " r.r_pre;
          add ctx "    let into = Array.make count 0 in\n";
          add ctx "    Env.read_block ~width:%d ~addr:(%s) ~into;\n"
            (port_width ctx lp) (addr_expr lp);
          emit_action ctx ~indent:"    " r.r_post;
          add ctx "    into\n")
        r.r_read;
      Option.iter
        (fun lp ->
          add ctx "  and write_%s_block from =\n" v.v_name;
          emit_action ctx ~indent:"    " r.r_pre;
          add ctx "    Env.write_block ~width:%d ~addr:(%s) ~from;\n"
            (port_width ctx lp) (addr_expr lp);
          emit_action ctx ~indent:"    " r.r_post;
          emit_action ctx ~indent:"    " r.r_set;
          add ctx "    ()\n")
        r.r_write

let emit_template ctx (t : Ir.template) =
  let params = String.concat " " (List.map fst t.t_params) in
  let range_checks indent =
    List.iter
      (fun (p, values) ->
        if List.length values <= 64 then
          add ctx "%sif not (List.mem %s [%s]) then failwith \"%s: %s out of range\";\n"
            indent p
            (String.concat "; " (List.map string_of_int values))
            t.t_name p)
      t.t_params
  in
  (match t.t_read with
  | Some lp ->
      add ctx "  and read_%s %s =\n" t.t_name params;
      range_checks "    ";
      emit_action ctx ~indent:"    " t.t_pre;
      add ctx "    let raw = Env.read ~width:%d ~addr:(%s) in\n"
        (port_width ctx lp) (addr_expr lp);
      emit_action ctx ~indent:"    " t.t_post;
      add ctx "    raw\n"
  | None -> ());
  match t.t_write with
  | Some lp ->
      add ctx "  and write_%s %s raw =\n" t.t_name params;
      range_checks "    ";
      emit_action ctx ~indent:"    " t.t_pre;
      add ctx "    %s\n" (frame_write ctx lp t.t_mask)
  | None -> ()

(* {1 Top level} *)

let generate (device : Ir.device) =
  let ctx = { buf = Buffer.create 16384; device } in
  add ctx "(* Generated by devilc from device '%s'. Do not edit. *)\n\n"
    device.d_name;
  add ctx "[@@@warning \"-32-26-27-33-39\"]\n\n";
  add ctx "module type DEVIL_ENV = sig\n";
  add ctx "  val read : width:int -> addr:int -> int\n";
  add ctx "  val write : width:int -> addr:int -> value:int -> unit\n";
  add ctx "  val read_block : width:int -> addr:int -> into:int array -> unit\n";
  add ctx "  val write_block : width:int -> addr:int -> from:int array -> unit\n";
  add ctx "  val base : string -> int\n";
  add ctx "end\n\n";
  add ctx "module Make (Env : DEVIL_ENV) = struct\n";
  List.iter
    (fun (p : Ir.port) ->
      add ctx "  let base_%s = Env.base \"%s\"\n" p.p_name p.p_name)
    device.d_ports;
  List.iter
    (fun (r : Ir.reg) ->
      add ctx "  let %s = ref 0\n  let %s = ref false\n" (reg_cache r.r_name)
        (reg_valid r.r_name))
    device.d_regs;
  List.iter
    (fun (s : Ir.strct) ->
      List.iter
        (fun (r : Ir.reg) ->
          add ctx "  let %s = ref 0\n" (scache s.s_name r.r_name))
        (Layout.struct_regs ctx.device s);
      add ctx "  let %s = ref false\n" (svalid s.s_name))
    device.d_structs;
  List.iter
    (fun (v : Ir.var) ->
      if v.v_chunks = [] then add ctx "  let %s = ref 0\n" (mem_cell v.v_name))
    device.d_vars;
  (* Enum case constants. *)
  List.iter
    (fun (v : Ir.var) ->
      match v.v_type with
      | Dtype.Enum cases ->
          List.iter
            (fun (c : Dtype.enum_case) ->
              match Bitpat.value c.pattern with
              | Some raw ->
                  add ctx "  let %s = %d\n" (const_name v c.case_name) raw
              | None -> ())
            cases
      | Dtype.Bool | Dtype.Int _ | Dtype.Int_set _ -> ())
    device.d_vars;
  add ctx "\n  let rec __devil_nop () = ()\n";
  List.iter (emit_reg ctx) device.d_regs;
  List.iter
    (fun v ->
      emit_var_setter ctx v;
      emit_var_getter ctx v;
      emit_block ctx v)
    device.d_vars;
  List.iter (emit_struct ctx) device.d_structs;
  List.iter (emit_template ctx) device.d_templates;
  add ctx "end\n";
  Buffer.contents ctx.buf
