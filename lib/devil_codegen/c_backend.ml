module Ir = Devil_ir.Ir
module Dtype = Devil_ir.Dtype
module Value = Devil_ir.Value
module Layout = Devil_ir.Layout
module Mask = Devil_bits.Mask
module Bitpat = Devil_bits.Bitpat
module Bitops = Devil_bits.Bitops

type ctx = {
  buf : Buffer.t;
  device : Ir.device;
  prefix : string;
}

let add ctx fmt = Printf.ksprintf (Buffer.add_string ctx.buf) fmt

let upper = String.uppercase_ascii

let cache_name ctx = Printf.sprintf "%s_cache" ctx.prefix

(* {1 Naming} *)

let port_field (p : string) = Printf.sprintf "__dil_%s__" p
let reg_cache (r : string) = Printf.sprintf "cache_%s" r
let reg_valid (r : string) = Printf.sprintf "cache_%s_valid" r
let mem_field (v : string) = Printf.sprintf "mem_%s" v
let struct_cache (s : string) = Printf.sprintf "cache_%s" s

let io_in = function
  | 8 -> "inb"
  | 16 -> "inw"
  | 32 -> "inl"
  | w -> Printf.sprintf "in%d" w

let io_out = function
  | 8 -> "outb"
  | 16 -> "outw"
  | 32 -> "outl"
  | w -> Printf.sprintf "out%d" w

let port_width ctx (lp : Ir.located_port) =
  match Ir.find_port ctx.device lp.lp_port with
  | Some p -> p.p_width
  | None -> 8

let addr_expr ctx (lp : Ir.located_port) =
  if lp.lp_offset = 0 then
    Printf.sprintf "%s.%s" (cache_name ctx) (port_field lp.lp_port)
  else
    Printf.sprintf "%s.%s + %d" (cache_name ctx) (port_field lp.lp_port)
      lp.lp_offset

(* {1 Enum case macros} *)

let case_macro ctx (v : Ir.var) (c : Dtype.enum_case) =
  Printf.sprintf "%s_%s_%s" (upper ctx.prefix) (upper v.v_name)
    (upper c.case_name)

let emit_enum_macros ctx =
  List.iter
    (fun (v : Ir.var) ->
      match v.v_type with
      | Dtype.Enum cases ->
          List.iter
            (fun (c : Dtype.enum_case) ->
              match Bitpat.value c.pattern with
              | Some raw -> add ctx "#define %s 0x%xu\n" (case_macro ctx v c) raw
              | None ->
                  add ctx "/* %s: wildcard pattern %s (read match only) */\n"
                    (case_macro ctx v c)
                    (Bitpat.to_string c.pattern))
            cases
      | Dtype.Bool | Dtype.Int _ | Dtype.Int_set _ -> ())
    ctx.device.d_vars

(* {1 Value rendering} *)

let getter ctx name = Printf.sprintf "%s_get_%s()" ctx.prefix name

let render_const ctx (target : Ir.var) (value : Value.t) =
  match (value, target.v_type) with
  | Value.Int n, _ -> Printf.sprintf "0x%xu" n
  | Value.Bool b, _ -> if b then "1u" else "0u"
  | Value.Enum name, ty -> (
      match Dtype.find_case ty name with
      | Some c -> Printf.sprintf "%s" (case_macro ctx target c)
      | None -> "0u /* unknown case */")

let render_operand ctx (target : Ir.var) (o : Ir.operand) =
  match o with
  | Ir.O_int n -> Printf.sprintf "0x%xu" n
  | Ir.O_bool b -> if b then "1u" else "0u"
  | Ir.O_enum name -> render_const ctx target (Value.Enum name)
  | Ir.O_any -> "0u /* any */"
  | Ir.O_var src -> getter ctx src
  | Ir.O_param p -> Printf.sprintf "(%s)" p

(* {1 Actions} *)

let emit_action ctx ~indent (a : Ir.action) =
  List.iter
    (fun (assignment : Ir.assignment) ->
      match assignment with
      | Ir.Set_var { target; value } -> (
          match Ir.find_var ctx.device target with
          | Some tv ->
              add ctx "%s%s_set_%s(%s);\n" indent ctx.prefix target
                (render_operand ctx tv value)
          | None -> add ctx "%s/* unknown target %s */\n" indent target)
      | Ir.Set_struct { target; fields } -> (
          match Ir.find_struct ctx.device target with
          | Some s ->
              let args =
                List.map
                  (fun fname ->
                    match List.assoc_opt fname fields with
                    | Some o -> (
                        match Ir.find_var ctx.device fname with
                        | Some fv -> render_operand ctx fv o
                        | None -> "0u")
                    | None -> getter ctx fname)
                  s.s_fields
              in
              add ctx "%s%s_set_%s(%s);\n" indent ctx.prefix target
                (String.concat ", " args)
          | None -> add ctx "%s/* unknown structure %s */\n" indent target))
    a

(* {1 Register raw accessors} *)

(* The masked frame write of [raw] (paper §2.1). *)
let emit_frame_write ctx (lp : Ir.located_port) (m : Mask.t) =
  add ctx "  %s((raw & 0x%xu) | 0x%xu, %s);\n" (io_out (port_width ctx lp))
    (Mask.covered_value m) (Mask.forced_value m) (addr_expr ctx lp)

let emit_reg_writer ctx (r : Ir.reg) =
  match r.r_write with
  | None -> ()
  | Some lp ->
      add ctx "static inline void %s_write_%s(unsigned int raw)\n{\n"
        ctx.prefix r.r_name;
      emit_action ctx ~indent:"  " r.r_pre;
      emit_frame_write ctx lp r.r_mask;
      emit_action ctx ~indent:"  " r.r_post;
      emit_action ctx ~indent:"  " r.r_set;
      add ctx "  %s.%s = raw;\n" (cache_name ctx) (reg_cache r.r_name);
      add ctx "  %s.%s = 1;\n" (cache_name ctx) (reg_valid r.r_name);
      add ctx "}\n\n"

let emit_reg_reader ctx (r : Ir.reg) =
  match r.r_read with
  | None -> ()
  | Some lp ->
      let w = port_width ctx lp in
      add ctx "static inline unsigned int %s_read_%s(void)\n{\n" ctx.prefix
        r.r_name;
      emit_action ctx ~indent:"  " r.r_pre;
      add ctx "  unsigned int raw = %s(%s);\n" (io_in w) (addr_expr ctx lp);
      emit_action ctx ~indent:"  " r.r_post;
      add ctx "  %s.%s = raw;\n" (cache_name ctx) (reg_cache r.r_name);
      add ctx "  %s.%s = 1;\n" (cache_name ctx) (reg_valid r.r_name);
      add ctx "  return raw;\n}\n\n"

(* {1 Bit plumbing expressions} *)

(* Expression extracting variable bits from per-register raw
   expressions. *)
let gather_expr (v : Ir.var) ~(reg_expr : string -> string) =
  String.concat " | "
    (List.map
       (fun (p : Layout.piece) ->
         Printf.sprintf "(((%s >> %d) & 0x%xu) << %d)" (reg_expr p.reg) p.lo
           (Bitops.width_mask p.width) p.shift)
       (Layout.pieces v))

(* Statements inserting variable bits into the register images
   [img_<reg>]. *)
let emit_scatter ctx (v : Ir.var) ~value_expr =
  List.iter
    (fun (p : Layout.piece) ->
      add ctx
        "  img_%s = (img_%s & ~0x%xu) | ((((%s) >> %d) & 0x%xu) << %d);\n"
        p.reg p.reg (Layout.field_mask p) value_expr p.shift
        (Bitops.width_mask p.width) p.lo)
    (Layout.pieces v)

(* One image per register: cached bits if valid, with every
   write-trigger sibling forced to its neutral. *)
let emit_images ctx regs =
  List.iter
    (fun (r : Ir.reg) ->
      add ctx "  unsigned int img_%s = %s;\n" r.r_name
        (List.fold_left
           (fun expr (clear, set) ->
             Printf.sprintf "((%s & ~0x%xu) | 0x%xu)" expr clear set)
           (Printf.sprintf "(%s.%s ? %s.%s : 0u)" (cache_name ctx)
              (reg_valid r.r_name) (cache_name ctx) (reg_cache r.r_name))
           (Layout.neutral_fields ctx.device r)))
    regs

(* The register writes of a setter; [actual] renders the variable a
   serialization condition tests. *)
let emit_writes ctx ~actual order =
  List.iter
    (fun ((cond : Ir.serial_cond option), (r : Ir.reg)) ->
      let write =
        Printf.sprintf "%s_write_%s(img_%s);" ctx.prefix r.r_name r.r_name
      in
      match cond with
      | None -> add ctx "  %s\n" write
      | Some c ->
          let expected =
            match Ir.find_var ctx.device c.sc_var with
            | Some cv -> render_operand ctx cv c.sc_value
            | None -> "0u"
          in
          add ctx "  if (%s %s %s) %s\n" (actual c.sc_var)
            (if c.sc_negated then "!=" else "==")
            expected write)
    order

(* {1 Dynamic checks} *)

let emit_check ctx ~what cond =
  add ctx "  #ifdef DEVIL_DEBUG\n";
  add ctx "  if (%s) devil_check_failed(\"%s\");\n" cond what;
  add ctx "  #endif\n"

let not_one_of x raws =
  String.concat " && " (List.map (Printf.sprintf "%s != 0x%xu" x) raws)

(* [x] outside an integer set: a range test when the set is
   contiguous, the full list otherwise. *)
let outside_set x values =
  let lo = List.fold_left min max_int values
  and hi = List.fold_left max min_int values in
  if hi - lo + 1 <> List.length (List.sort_uniq compare values) then
    not_one_of x values
  else if lo = 0 then Printf.sprintf "%s > 0x%xu" x hi
  else Printf.sprintf "%s < 0x%xu || %s > 0x%xu" x lo x hi

let emit_write_check ctx (v : Ir.var) =
  let fail = emit_check ctx ~what:v.v_name in
  match v.v_type with
  | Dtype.Bool -> fail "(v & ~1u) != 0u"
  | Dtype.Int { signed = false; bits } ->
      fail (Printf.sprintf "(v & ~0x%xu) != 0u" ((1 lsl bits) - 1))
  | Dtype.Int { signed = true; bits } ->
      fail
        (Printf.sprintf "(int)(v) < -%d || (int)(v) >= %d" (1 lsl (bits - 1))
           (1 lsl (bits - 1)))
  | Dtype.Int_set { values; _ } -> fail (outside_set "v" values)
  | Dtype.Enum _ -> (
      match Dtype.writable_raws v.v_type with
      | [] -> ()
      | raws -> fail (not_one_of "v" raws))

(* {1 Variable accessors} *)

let c_type_of (v : Ir.var) =
  match v.v_type with
  | Dtype.Int { signed = true; _ } -> "int"
  | Dtype.Bool | Dtype.Int _ | Dtype.Int_set _ | Dtype.Enum _ -> "unsigned int"

let sign_adjust (v : Ir.var) expr =
  match v.v_type with
  | Dtype.Int { signed = true; bits } ->
      Printf.sprintf "(((int)((%s) << %d)) >> %d)" expr (32 - bits) (32 - bits)
  | _ -> expr

let has_setter ctx (v : Ir.var) =
  v.v_chunks = [] || List.exists Ir.reg_writable (Ir.regs_of_var ctx.device v)

let emit_var_setter ctx (v : Ir.var) =
  if has_setter ctx v then begin
    add ctx "static inline void %s_set_%s(unsigned int v)\n{\n" ctx.prefix
      v.v_name;
    if v.v_chunks = [] then
      (* Memory cell. *)
      add ctx "  %s.%s = v;\n" (cache_name ctx) (mem_field v.v_name)
    else begin
      let regs = Ir.regs_of_var ctx.device v in
      emit_write_check ctx v;
      emit_action ctx ~indent:"  " v.v_pre;
      emit_images ctx regs;
      emit_scatter ctx v ~value_expr:"v";
      emit_writes ctx
        (Layout.write_order ctx.device regs v.v_serial)
        ~actual:(fun name ->
          if String.equal name v.v_name then "v" else getter ctx name);
      emit_action ctx ~indent:"  " v.v_set;
      emit_action ctx ~indent:"  " v.v_post
    end;
    add ctx "}\n\n"
  end

let emit_var_getter ctx (v : Ir.var) =
  if v.v_chunks = [] then begin
    add ctx "static inline unsigned int %s_get_%s(void)\n{\n" ctx.prefix
      v.v_name;
    add ctx "  return %s.%s;\n}\n\n" (cache_name ctx) (mem_field v.v_name)
  end
  else begin
    add ctx "static inline %s %s_get_%s(void)\n{\n" (c_type_of v) ctx.prefix
      v.v_name;
    (match v.v_struct with
    | Some sname ->
        (* Field stub: the structure read filled the cache. *)
        let reg_expr reg =
          Printf.sprintf "%s.%s.%s" (cache_name ctx) (struct_cache sname)
            (reg_cache reg)
        in
        add ctx "  return %s;\n" (sign_adjust v (gather_expr v ~reg_expr))
    | None ->
        (* Evaluate register reads once, in chunk order. *)
        List.iter
          (fun (r : Ir.reg) ->
            let cached =
              Printf.sprintf "%s.%s" (cache_name ctx) (reg_cache r.r_name)
            in
            let read = Printf.sprintf "%s_read_%s()" ctx.prefix r.r_name in
            add ctx "  unsigned int raw_%s = %s;\n" r.r_name
              (if not (Ir.reg_readable r) then cached
               else if Layout.fresh v then read
               else
                 Printf.sprintf "(%s.%s ? %s : %s)" (cache_name ctx)
                   (reg_valid r.r_name) cached read))
          (Ir.regs_of_var ctx.device v);
        add ctx "  return %s;\n"
          (sign_adjust v
             (gather_expr v ~reg_expr:(fun reg -> "raw_" ^ reg))));
    add ctx "}\n\n"
  end

(* {1 Structures} *)

let emit_struct_getter ctx (s : Ir.strct) =
  let regs = Layout.struct_regs ctx.device s in
  if List.for_all (fun (r : Ir.reg) -> Ir.reg_readable r) regs then begin
    add ctx "static inline void %s_get_%s(void)\n{\n" ctx.prefix s.s_name;
    List.iter
      (fun (r : Ir.reg) ->
        add ctx "  %s.%s.%s = %s_read_%s();\n" (cache_name ctx)
          (struct_cache s.s_name) (reg_cache r.r_name) ctx.prefix r.r_name)
      regs;
    add ctx "}\n\n"
  end

let emit_struct_setter ctx (s : Ir.strct) =
  let regs = Layout.struct_regs ctx.device s in
  if List.exists (fun (r : Ir.reg) -> Ir.reg_writable r) regs then begin
    let params =
      String.concat ", "
        (List.map (fun f -> Printf.sprintf "unsigned int %s" f) s.s_fields)
    in
    add ctx "static inline void %s_set_%s(%s)\n{\n" ctx.prefix s.s_name params;
    emit_images ctx regs;
    List.iter
      (fun fname ->
        Option.iter
          (fun v -> emit_scatter ctx v ~value_expr:fname)
          (Ir.find_var ctx.device fname))
      s.s_fields;
    emit_writes ctx
      (Layout.write_order ctx.device regs s.s_serial)
      ~actual:(fun name ->
        if List.mem name s.s_fields then name else getter ctx name);
    (* Per-field set actions, with the new values in scope. *)
    List.iter
      (fun fname ->
        match Ir.find_var ctx.device fname with
        | Some v when v.v_set <> [] ->
            List.iter
              (fun (assignment : Ir.assignment) ->
                match assignment with
                | Ir.Set_var { target; value } ->
                    let expr =
                      match value with
                      | Ir.O_var src when String.equal src fname -> fname
                      | o -> (
                          match Ir.find_var ctx.device target with
                          | Some tv -> render_operand ctx tv o
                          | None -> "0u")
                    in
                    add ctx "  %s_set_%s(%s);\n" ctx.prefix target expr
                | Ir.Set_struct _ -> ())
              v.v_set
        | Some _ | None -> ())
      s.s_fields;
    add ctx "}\n\n"
  end

(* {1 Block transfer stubs} *)

let emit_block_stubs ctx (v : Ir.var) =
  match Layout.block_reg ctx.device v with
  | Error _ -> ()
  | Ok r ->
      let emit_one (dir, const, prim) (lp : Ir.located_port) =
        add ctx
          "static inline void %s_%s_%s_block(%sunsigned int *buf, unsigned \
           int count)\n{\n"
          ctx.prefix dir v.v_name const;
        emit_action ctx ~indent:"  " r.r_pre;
        add ctx "  __devil_%s%d(%s, buf, count);\n" prim (port_width ctx lp)
          (addr_expr ctx lp);
        emit_action ctx ~indent:"  " r.r_post;
        add ctx "}\n\n"
      in
      Option.iter (emit_one ("read", "", "ins")) r.r_read;
      Option.iter (emit_one ("write", "const ", "outs")) r.r_write

(* {1 Templates: indexed register stubs} *)

let emit_template_stubs ctx (t : Ir.template) =
  let params =
    String.concat ", "
      (List.map (fun (p, _) -> Printf.sprintf "unsigned int %s" p) t.t_params)
  in
  let check_args () =
    List.iter
      (fun (p, values) -> emit_check ctx ~what:t.t_name (outside_set p values))
      t.t_params
  in
  (match t.t_read with
  | Some lp ->
      let w = port_width ctx lp in
      add ctx "static inline unsigned int %s_read_%s(%s)\n{\n" ctx.prefix
        t.t_name params;
      check_args ();
      emit_action ctx ~indent:"  " t.t_pre;
      add ctx "  return %s(%s);\n" (io_in w) (addr_expr ctx lp);
      add ctx "}\n\n"
  | None -> ());
  match t.t_write with
  | Some lp ->
      let params' = if params = "" then "unsigned int raw" else params ^ ", unsigned int raw" in
      add ctx "static inline void %s_write_%s(%s)\n{\n" ctx.prefix t.t_name
        params';
      check_args ();
      emit_action ctx ~indent:"  " t.t_pre;
      emit_frame_write ctx lp t.t_mask;
      emit_action ctx ~indent:"  " t.t_post;
      add ctx "}\n\n"
  | None -> ()

(* {1 Top level} *)

let emit_cache_struct ctx =
  add ctx "struct %s_devil_cache {\n" ctx.prefix;
  List.iter
    (fun (p : Ir.port) ->
      add ctx "  unsigned long %s;\n" (port_field p.p_name))
    ctx.device.d_ports;
  List.iter
    (fun (r : Ir.reg) ->
      add ctx "  unsigned int %s;\n  unsigned char %s;\n" (reg_cache r.r_name)
        (reg_valid r.r_name))
    ctx.device.d_regs;
  List.iter
    (fun (s : Ir.strct) ->
      add ctx "  struct {\n";
      List.iter
        (fun (r : Ir.reg) -> add ctx "    unsigned int %s;\n" (reg_cache r.r_name))
        (Layout.struct_regs ctx.device s);
      add ctx "  } %s;\n" (struct_cache s.s_name))
    ctx.device.d_structs;
  List.iter
    (fun (v : Ir.var) ->
      if v.v_chunks = [] then
        add ctx "  unsigned int %s;\n" (mem_field v.v_name))
    ctx.device.d_vars;
  add ctx "};\n";
  add ctx "static struct %s_devil_cache %s;\n\n" ctx.prefix (cache_name ctx)

let emit_init ctx =
  let params =
    String.concat ", "
      (List.map
         (fun (p : Ir.port) -> Printf.sprintf "unsigned long %s" p.p_name)
         ctx.device.d_ports)
  in
  add ctx "static inline void %s_init(%s)\n{\n" ctx.prefix params;
  List.iter
    (fun (p : Ir.port) ->
      add ctx "  %s.%s = %s;\n" (cache_name ctx) (port_field p.p_name) p.p_name)
    ctx.device.d_ports;
  add ctx "}\n\n"

let prologue ctx =
  add ctx "/* Generated by devilc from device '%s'. Do not edit. */\n"
    ctx.device.d_name;
  add ctx "#ifndef DEVIL_%s_H\n#define DEVIL_%s_H\n\n"
    (upper ctx.device.d_name) (upper ctx.device.d_name);
  add ctx "/* I/O primitives (inb/outb/inw/outw/inl/outl) and the string\n";
  add ctx " * variants come from the environment, e.g. <asm/io.h>. */\n";
  add ctx "#ifndef __devil_ins8\n";
  add ctx "#define __devil_ins8(port, buf, n) insb((port), (buf), (n))\n";
  add ctx "#define __devil_ins16(port, buf, n) insw((port), (buf), (n))\n";
  add ctx "#define __devil_ins32(port, buf, n) insl((port), (buf), (n))\n";
  add ctx "#define __devil_outs8(port, buf, n) outsb((port), (buf), (n))\n";
  add ctx "#define __devil_outs16(port, buf, n) outsw((port), (buf), (n))\n";
  add ctx "#define __devil_outs32(port, buf, n) outsl((port), (buf), (n))\n";
  add ctx "#endif\n";
  add ctx "#ifdef DEVIL_DEBUG\n";
  add ctx "extern void devil_check_failed(const char *what);\n";
  add ctx "#endif\n\n"

let epilogue ctx =
  add ctx "#endif /* DEVIL_%s_H */\n" (upper ctx.device.d_name)

(* Emission order must respect dependencies: pre-actions of a register
   call the setters of the variables they assign, which themselves call
   register writers. Variables and registers appear in declaration
   order, which the elaborator guarantees to be define-before-use, so a
   forward declaration pass keeps C happy. *)
let emit_forward_decls ctx =
  List.iter
    (fun (v : Ir.var) ->
      if has_setter ctx v then
        add ctx "static inline void %s_set_%s(unsigned int v);\n" ctx.prefix
          v.v_name;
      add ctx "static inline %s %s_get_%s(void);\n" (c_type_of v) ctx.prefix
        v.v_name)
    ctx.device.d_vars;
  List.iter
    (fun (s : Ir.strct) ->
      let regs = Layout.struct_regs ctx.device s in
      if List.for_all Ir.reg_readable regs && regs <> [] then
        add ctx "static inline void %s_get_%s(void);\n" ctx.prefix s.s_name;
      if List.exists Ir.reg_writable regs then begin
        let params =
          String.concat ", "
            (List.map (fun f -> Printf.sprintf "unsigned int %s" f) s.s_fields)
        in
        add ctx "static inline void %s_set_%s(%s);\n" ctx.prefix s.s_name
          params
      end)
    ctx.device.d_structs;
  add ctx "\n"

let generate ?prefix (device : Ir.device) =
  let prefix = Option.value prefix ~default:device.d_name in
  let ctx = { buf = Buffer.create 8192; device; prefix } in
  prologue ctx;
  emit_cache_struct ctx;
  emit_init ctx;
  emit_enum_macros ctx;
  add ctx "\n";
  emit_forward_decls ctx;
  List.iter
    (fun r ->
      emit_reg_writer ctx r;
      emit_reg_reader ctx r)
    device.d_regs;
  List.iter (emit_template_stubs ctx) device.d_templates;
  List.iter
    (fun v ->
      emit_var_setter ctx v;
      emit_var_getter ctx v;
      emit_block_stubs ctx v)
    device.d_vars;
  List.iter
    (fun s ->
      emit_struct_getter ctx s;
      emit_struct_setter ctx s)
    device.d_structs;
  epilogue ctx;
  Buffer.contents ctx.buf
