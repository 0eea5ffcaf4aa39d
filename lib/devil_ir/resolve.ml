module Mask = Devil_bits.Mask
module Bitpat = Devil_bits.Bitpat
module Ast = Devil_syntax.Ast
module Parser = Devil_syntax.Parser
module Diagnostics = Devil_syntax.Diagnostics
module Loc = Devil_syntax.Loc

type env = {
  diags : Diagnostics.t;
  config : (string * Value.t) list;
  mutable ports : Ir.port list;  (* reverse declaration order *)
  mutable consts : (string * Dtype.t) list;
  mutable regs : Ir.reg list;
  mutable templates : Ir.template list;
  mutable vars : Ir.var list;
  mutable structs : Ir.strct list;
}

let err env loc fmt = Diagnostics.error env.diags loc fmt

let lookup_port env name =
  List.find_opt (fun (p : Ir.port) -> String.equal p.p_name name) env.ports

let lookup_const env name =
  List.find_opt (fun (n, _) -> String.equal n name) env.consts

let lookup_reg env name =
  List.find_opt (fun (r : Ir.reg) -> String.equal r.r_name name) env.regs

let lookup_template env name =
  List.find_opt
    (fun (t : Ir.template) -> String.equal t.t_name name)
    env.templates

let lookup_var env name =
  List.find_opt (fun (v : Ir.var) -> String.equal v.v_name name) env.vars

let lookup_struct env name =
  List.find_opt (fun (s : Ir.strct) -> String.equal s.s_name name) env.structs

(* {1 Types} *)

let bits_for_max n =
  let rec go bits = if n < 1 lsl bits then bits else go (bits + 1) in
  if n <= 0 then 1 else go 1

let resolve_dtype env ({ ty; ty_loc } : Ast.dtype_loc) : Dtype.t =
  match ty with
  | Ast.T_bool -> Dtype.Bool
  | Ast.T_int { signed; bits } ->
      if bits <= 0 || bits > 32 then (
        err env ty_loc "integer type width %d is out of range 1..32" bits;
        Dtype.Int { signed; bits = 8 })
      else Dtype.Int { signed; bits }
  | Ast.T_int_set set when Ast.int_set_span set > 65536 ->
      err env ty_loc "integer set type has more than 65536 members";
      Dtype.Int_set { values = [ 0 ]; bits = 1 }
  | Ast.T_int_set set ->
      let values = Ast.int_set_values set in
      let values =
        match values with
        | [] ->
            err env ty_loc "empty integer set type";
            [ 0 ]
        | v :: _ when v < 0 ->
            err env ty_loc "integer set types must be non-negative";
            List.filter (fun v -> v >= 0) values
        | _ -> values
      in
      let max_v = List.fold_left max 0 values in
      if max_v >= 1 lsl 32 then begin
        err env ty_loc "integer set member %d exceeds the 32-bit limit" max_v;
        Dtype.Int_set { values = [ 0 ]; bits = 1 }
      end
      else Dtype.Int_set { values; bits = bits_for_max max_v }
  | Ast.T_enum cases ->
      let resolve_case (c : Ast.enum_case) : Dtype.enum_case option =
        match Bitpat.of_string c.pattern with
        | Error msg ->
            err env c.pattern_loc "%s" msg;
            None
        | Ok pattern ->
            let dir =
              match c.dir with
              | Ast.Dir_read -> Dtype.Read
              | Ast.Dir_write -> Dtype.Write
              | Ast.Dir_both -> Dtype.Both
            in
            Some { Dtype.case_name = c.case_name.name; dir; pattern }
      in
      Dtype.Enum (List.filter_map resolve_case cases)

(* {1 Operands and actions} *)

(* Resolution order for a symbol: register-template parameter, then
   enumeration case of the assignment target's type, then device
   variable. *)
let resolve_operand env ~params ~target_type (av : Ast.action_value) :
    Ir.operand =
  match av with
  | Ast.AV_int n -> Ir.O_int n
  | Ast.AV_bool b -> Ir.O_bool b
  | Ast.AV_any -> Ir.O_any
  | Ast.AV_sym id ->
      if List.exists (String.equal id.name) params then Ir.O_param id.name
      else
        let is_enum_case =
          match target_type with
          | Some ty -> Option.is_some (Dtype.find_case ty id.name)
          | None -> false
        in
        if is_enum_case then Ir.O_enum id.name
        else if Option.is_some (lookup_var env id.name) then Ir.O_var id.name
        else (
          err env id.loc "unresolved symbol %s" id.name;
          Ir.O_any)

let resolve_assignment env ~params (a : Ast.assignment) : Ir.assignment =
  match a with
  | Ast.Assign (target, av) ->
      let target_type =
        match lookup_var env target.name with
        | Some v -> Some v.Ir.v_type
        | None ->
            err env target.loc "assignment to undeclared variable %s"
              target.name;
            None
      in
      Ir.Set_var
        {
          target = target.name;
          value = resolve_operand env ~params ~target_type av;
        }
  | Ast.Assign_struct (target, fields) ->
      (match lookup_struct env target.name with
      | Some _ -> ()
      | None ->
          err env target.loc "assignment to undeclared structure %s"
            target.name);
      let resolve_field ((f, av) : Ast.ident * Ast.action_value) =
        let target_type =
          match lookup_var env f.name with
          | Some v -> Some v.Ir.v_type
          | None ->
              err env f.loc "unknown structure field %s" f.name;
              None
        in
        (f.name, resolve_operand env ~params ~target_type av)
      in
      Ir.Set_struct
        { target = target.name; fields = List.map resolve_field fields }

let resolve_action env ~params (a : Ast.action) : Ir.action =
  List.map (resolve_assignment env ~params) a.assignments

(* {1 Ports and register bodies} *)

let resolve_located_port env (pe : Ast.port_expr) : Ir.located_port option =
  match lookup_port env pe.port_name.name with
  | None ->
      err env pe.port_name.loc "unknown port %s" pe.port_name.name;
      None
  | Some port ->
      let offset = Option.value pe.port_offset ~default:0 in
      if not (List.mem offset port.p_offsets) then
        err env pe.port_loc "offset %d is outside the range of port %s" offset
          port.p_name;
      Some { Ir.lp_port = port.p_name; lp_offset = offset }

type resolved_attrs = {
  ra_mask : (string * Loc.t) option;
  ra_pre : Ir.action;
  ra_post : Ir.action;
  ra_set : Ir.action;
}

let resolve_reg_attrs env ~params ~loc (attrs : Ast.reg_attr list) =
  let init = { ra_mask = None; ra_pre = []; ra_post = []; ra_set = [] } in
  List.fold_left
    (fun acc (attr : Ast.reg_attr) ->
      match attr with
      | Ast.RA_mask { mask_text; mask_loc } ->
          if Option.is_some acc.ra_mask then
            err env mask_loc "duplicate mask attribute";
          { acc with ra_mask = Some (mask_text, mask_loc) }
      | Ast.RA_pre a ->
          { acc with ra_pre = acc.ra_pre @ resolve_action env ~params a }
      | Ast.RA_post a ->
          { acc with ra_post = acc.ra_post @ resolve_action env ~params a }
      | Ast.RA_set a ->
          { acc with ra_set = acc.ra_set @ resolve_action env ~params a })
    init attrs
  |> fun acc ->
  ignore loc;
  acc

let resolve_mask env ~size = function
  | None -> Mask.all_covered size
  | Some (text, loc) -> (
      match Mask.of_string ~width:size text with
      | Ok m -> m
      | Error msg ->
          err env loc "%s" msg;
          Mask.all_covered size)

(* Substitute template parameters with concrete integers. *)
let subst_operand bindings (o : Ir.operand) : Ir.operand =
  match o with
  | Ir.O_param name -> (
      match List.assoc_opt name bindings with
      | Some v -> Ir.O_int v
      | None -> o)
  | Ir.O_int _ | Ir.O_bool _ | Ir.O_enum _ | Ir.O_any | Ir.O_var _ -> o

let subst_action bindings (a : Ir.action) : Ir.action =
  let subst_assignment = function
    | Ir.Set_var { target; value } ->
        Ir.Set_var { target; value = subst_operand bindings value }
    | Ir.Set_struct { target; fields } ->
        Ir.Set_struct
          {
            target;
            fields =
              List.map (fun (f, v) -> (f, subst_operand bindings v)) fields;
          }
  in
  List.map subst_assignment a

(* {1 Registers} *)

let resolve_port_bindings env (bindings : (Ast.access * Ast.port_expr) list)
    ~loc =
  let read = ref None and write = ref None in
  let bind_read lp =
    match !read with
    | None -> read := Some lp
    | Some _ -> err env loc "register has two read ports"
  in
  let bind_write lp =
    match !write with
    | None -> write := Some lp
    | Some _ -> err env loc "register has two write ports"
  in
  List.iter
    (fun ((acc, pe) : Ast.access * Ast.port_expr) ->
      match resolve_located_port env pe with
      | None -> ()
      | Some lp -> (
          match acc with
          | Ast.Acc_read -> bind_read lp
          | Ast.Acc_write -> bind_write lp
          | Ast.Acc_read_write ->
              bind_read lp;
              bind_write lp))
    bindings;
  (!read, !write)

let resolve_register env (r : Ast.reg_decl) =
  let name = r.reg_name.name in
  (if Option.is_some (lookup_reg env name)
   || Option.is_some (lookup_template env name)
  then err env r.reg_name.loc "register %s is declared twice" name);
  match (r.reg_params, r.reg_body) with
  | [], Ast.RB_instance { template; args; args_loc } -> (
      (* Instantiation of a parameterized register. *)
      match lookup_template env template.name with
      | None ->
          err env template.loc "unknown register template %s" template.name
      | Some t ->
          let n_formal = List.length t.t_params
          and n_actual = List.length args in
          if n_formal <> n_actual then
            err env args_loc "template %s expects %d argument(s), got %d"
              t.t_name n_formal n_actual
          else begin
            let bindings = List.combine (List.map fst t.t_params) args in
            List.iter
              (fun ((pname, legal), v) ->
                if not (List.mem v legal) then
                  err env args_loc
                    "argument %d for parameter %s of %s is out of range" v
                    pname t.t_name)
              (List.combine t.t_params args);
            let attrs =
              resolve_reg_attrs env ~params:[] ~loc:r.reg_loc r.reg_attrs
            in
            (match r.reg_size with
            | Some size when size <> t.t_size ->
                err env r.reg_loc
                  "instance size %d differs from template size %d" size
                  t.t_size
            | Some _ | None -> ());
            let mask =
              match attrs.ra_mask with
              | Some (text, loc) -> (
                  match Mask.of_string ~width:t.t_size text with
                  | Ok m -> m
                  | Error msg ->
                      err env loc "%s" msg;
                      t.t_mask)
              | None -> t.t_mask
            in
            let reg : Ir.reg =
              {
                r_name = name;
                r_size = t.t_size;
                r_read = t.t_read;
                r_write = t.t_write;
                r_mask = mask;
                r_pre = subst_action bindings t.t_pre @ attrs.ra_pre;
                r_post = subst_action bindings t.t_post @ attrs.ra_post;
                r_set = subst_action bindings t.t_set @ attrs.ra_set;
                r_from_template = Some (t.t_name, args);
                r_loc = r.reg_loc;
              }
            in
            env.regs <- reg :: env.regs
          end)
  | [], Ast.RB_ports bindings ->
      let size =
        match r.reg_size with
        | Some s -> s
        | None ->
            err env r.reg_loc "register %s needs an explicit size" name;
            8
      in
      let read, write = resolve_port_bindings env bindings ~loc:r.reg_loc in
      let attrs = resolve_reg_attrs env ~params:[] ~loc:r.reg_loc r.reg_attrs in
      let reg : Ir.reg =
        {
          r_name = name;
          r_size = size;
          r_read = read;
          r_write = write;
          r_mask = resolve_mask env ~size attrs.ra_mask;
          r_pre = attrs.ra_pre;
          r_post = attrs.ra_post;
          r_set = attrs.ra_set;
          r_from_template = None;
          r_loc = r.reg_loc;
        }
      in
      env.regs <- reg :: env.regs
  | _ :: _, Ast.RB_instance _ ->
      err env r.reg_loc "a parameterized register cannot be an instance"
  | params, Ast.RB_ports bindings ->
      let size =
        match r.reg_size with
        | Some s -> s
        | None ->
            err env r.reg_loc "register template %s needs an explicit size"
              name;
            8
      in
      let param_names =
        List.map (fun (p : Ast.reg_param) -> p.param_name.name) params
      in
      let read, write = resolve_port_bindings env bindings ~loc:r.reg_loc in
      let attrs =
        resolve_reg_attrs env ~params:param_names ~loc:r.reg_loc r.reg_attrs
      in
      let t_params =
        List.map
          (fun (p : Ast.reg_param) ->
            if Ast.int_set_span p.param_set > 65536 then begin
              err env p.param_name.loc
                "parameter %s ranges over more than 65536 values"
                p.param_name.name;
              (p.param_name.name, [ 0 ])
            end
            else begin
              let values = Ast.int_set_values p.param_set in
              if values = [] then
                err env p.param_name.loc "parameter %s has an empty range"
                  p.param_name.name;
              (p.param_name.name, values)
            end)
          params
      in
      let template : Ir.template =
        {
          t_name = name;
          t_params;
          t_size = size;
          t_read = read;
          t_write = write;
          t_mask = resolve_mask env ~size attrs.ra_mask;
          t_pre = attrs.ra_pre;
          t_post = attrs.ra_post;
          t_set = attrs.ra_set;
          t_loc = r.reg_loc;
        }
      in
      env.templates <- template :: env.templates

(* {1 Variables} *)

let resolve_chunk env (c : Ast.chunk) : Ir.chunk option =
  let reg_name = c.chunk_reg.name in
  let size =
    match lookup_reg env reg_name with
    | Some r -> Some r.Ir.r_size
    | None -> (
        match lookup_template env reg_name with
        | Some _ ->
            err env c.chunk_reg.loc
              "variable chunks cannot reference the parameterized register %s \
               directly; declare an instance first"
              reg_name;
            None
        | None ->
            err env c.chunk_reg.loc "unknown register %s" reg_name;
            None)
  in
  match size with
  | None -> None
  | Some size ->
      let ranges =
        match c.chunk_ranges with
        | [] -> [ (size - 1, 0) ]
        | ranges ->
            List.map
              (fun (item : Ast.int_set_item) ->
                match item with
                | Ast.Single n -> (n, n)
                | Ast.Range (hi, lo) ->
                    if hi < lo then (
                      err env c.chunk_loc
                        "bit range %d..%d is inverted (write high bit first)"
                        hi lo;
                      (lo, hi))
                    else (hi, lo))
              ranges
      in
      List.iter
        (fun (hi, lo) ->
          if lo < 0 || hi >= size then
            err env c.chunk_loc "bit range %d..%d exceeds register %s (%d bits)"
              hi lo reg_name size)
        ranges;
      Some { Ir.c_reg = reg_name; c_ranges = ranges }

let resolve_exempt env ~ty ~loc (e : Ast.exempt) : Ir.exempt option =
  let value_of_av (av : Ast.action_value) : Value.t option =
    match av with
    | Ast.AV_int n -> Some (Value.Int n)
    | Ast.AV_bool b -> Some (Value.Bool b)
    | Ast.AV_sym id ->
        if Option.is_some (Dtype.find_case ty id.name) then
          Some (Value.Enum id.name)
        else (
          err env id.loc "%s is not a case of the variable's type" id.name;
          None)
    | Ast.AV_any ->
        err env loc "'*' cannot be used as a trigger exemption";
        None
  in
  match e with
  | Ast.Exempt_except id ->
      if Option.is_some (Dtype.find_case ty id.name) then
        Some (Ir.Neutral (Value.Enum id.name))
      else (
        err env id.loc "neutral value %s is not a case of the variable's type"
          id.name;
        None)
  | Ast.Exempt_for av -> Option.map (fun v -> Ir.Only v) (value_of_av av)

type var_attr_acc = {
  va_volatile : bool;
  va_trigger : Ir.trigger option;
  va_block : bool;
  va_pre : Ir.action;
  va_post : Ir.action;
  va_set : Ir.action;
}

let resolve_var_attrs env ~ty ~loc (attrs : Ast.var_attr list) =
  let init =
    {
      va_volatile = false;
      va_trigger = None;
      va_block = false;
      va_pre = [];
      va_post = [];
      va_set = [];
    }
  in
  List.fold_left
    (fun acc (attr : Ast.var_attr) ->
      match attr with
      | Ast.VA_volatile -> { acc with va_volatile = true }
      | Ast.VA_block -> { acc with va_block = true }
      | Ast.VA_pre a ->
          { acc with va_pre = acc.va_pre @ resolve_action env ~params:[] a }
      | Ast.VA_post a ->
          { acc with va_post = acc.va_post @ resolve_action env ~params:[] a }
      | Ast.VA_set a ->
          { acc with va_set = acc.va_set @ resolve_action env ~params:[] a }
      | Ast.VA_trigger { t_dir; t_exempt } ->
          let exempt =
            Option.bind t_exempt (resolve_exempt env ~ty ~loc)
          in
          let this : Ir.trigger =
            {
              tr_read =
                (match t_dir with
                | Ast.Trig_read | Ast.Trig_both -> true
                | Ast.Trig_write -> false);
              tr_write =
                (match t_dir with
                | Ast.Trig_write | Ast.Trig_both -> true
                | Ast.Trig_read -> false);
              tr_exempt = exempt;
            }
          in
          let merged =
            match acc.va_trigger with
            | None -> this
            | Some prev ->
                {
                  Ir.tr_read = prev.tr_read || this.tr_read;
                  tr_write = prev.tr_write || this.tr_write;
                  tr_exempt =
                    (match this.tr_exempt with
                    | Some _ as e -> e
                    | None -> prev.tr_exempt);
                }
          in
          { acc with va_trigger = Some merged })
    init attrs

let resolve_serial_cond env (c : Ast.serial_cond) : Ir.serial_cond =
  let var_type =
    match lookup_var env c.sc_var.name with
    | Some v -> Some v.Ir.v_type
    | None -> (
        match lookup_const env c.sc_var.name with
        | Some (_, ty) -> Some ty
        | None ->
            err env c.sc_var.loc "unknown variable %s in condition"
              c.sc_var.name;
            None)
  in
  {
    Ir.sc_var = c.sc_var.name;
    sc_negated = c.sc_negated;
    sc_value = resolve_operand env ~params:[] ~target_type:var_type c.sc_value;
  }

let resolve_serial_items env (items : Ast.serial_item list) :
    Ir.serial_item list =
  List.map
    (fun (item : Ast.serial_item) ->
      (match lookup_reg env item.si_reg.name with
      | Some _ -> ()
      | None ->
          err env item.si_reg.loc "unknown register %s in serialization"
            item.si_reg.name);
      {
        Ir.si_cond = Option.map (resolve_serial_cond env) item.si_cond;
        si_reg = item.si_reg.name;
      })
    items

let resolve_variable env ~struct_name (v : Ast.var_decl) =
  let name = v.var_name.name in
  if Option.is_some (lookup_var env name) then
    err env v.var_name.loc "variable %s is declared twice" name;
  let ty =
    match v.var_type with
    | Some t -> resolve_dtype env t
    | None ->
        err env v.var_loc "variable %s must be given a type" name;
        Dtype.Int { signed = false; bits = 8 }
  in
  let chunks = List.filter_map (resolve_chunk env) v.var_chunks in
  (* Register the variable before resolving its attributes: a set action
     may reference the variable itself (e.g. [set {xm = XRAE}] on XRAE). *)
  let placeholder : Ir.var =
    {
      v_name = name;
      v_private = v.var_private;
      v_chunks = chunks;
      v_type = ty;
      v_behaviour = { b_volatile = false; b_trigger = None; b_block = false };
      v_pre = [];
      v_post = [];
      v_set = [];
      v_serial = None;
      v_struct = struct_name;
      v_loc = v.var_loc;
    }
  in
  env.vars <- placeholder :: env.vars;
  let attrs = resolve_var_attrs env ~ty ~loc:v.var_loc v.var_attrs in
  let serial = Option.map (resolve_serial_items env) v.var_serial in
  let resolved =
    {
      placeholder with
      v_behaviour =
        {
          Ir.b_volatile = attrs.va_volatile;
          b_trigger = attrs.va_trigger;
          b_block = attrs.va_block;
        };
      v_pre = attrs.va_pre;
      v_post = attrs.va_post;
      v_set = attrs.va_set;
      v_serial = serial;
    }
  in
  env.vars <-
    (match env.vars with
    | _placeholder :: rest -> resolved :: rest
    | [] -> [ resolved ])

(* {1 Structures, conditionals, devices} *)

let eval_condition env (c : Ast.serial_cond) : bool =
  let name = c.sc_var.name in
  match lookup_const env name with
  | None ->
      err env c.sc_var.loc
        "conditional declarations must test a configuration parameter; %s is \
         not one"
        name;
      false
  | Some (_, ty) -> (
      match List.assoc_opt name env.config with
      | None ->
          err env c.sc_var.loc
            "no configuration value supplied for parameter %s" name;
          false
      | Some actual when Result.is_error (Dtype.validate_write ty actual) ->
          err env c.sc_var.loc
            "configuration value %s does not fit parameter %s : %a"
            (Value.to_string actual) name Dtype.pp ty;
          false
      | Some actual ->
          let expected : Value.t option =
            match c.sc_value with
            | Ast.AV_int n -> Some (Value.Int n)
            | Ast.AV_bool b -> Some (Value.Bool b)
            | Ast.AV_sym id ->
                if Option.is_some (Dtype.find_case ty id.name) then
                  Some (Value.Enum id.name)
                else (
                  err env id.loc "%s is not a case of parameter %s's type"
                    id.name name;
                  None)
            | Ast.AV_any ->
                err env c.sc_var.loc "'*' is not a valid condition value";
                None
          in
          (match expected with
          | None -> false
          | Some e ->
              let eq = Value.equal actual e in
              if c.sc_negated then not eq else eq))

let rec resolve_decl env (d : Ast.decl) =
  match d with
  | Ast.D_register r -> resolve_register env r
  | Ast.D_variable v -> resolve_variable env ~struct_name:None v
  | Ast.D_structure s -> resolve_structure env s
  | Ast.D_conditional { cd_cond; cd_then; cd_else; _ } ->
      let branch = if eval_condition env cd_cond then cd_then else cd_else in
      List.iter (resolve_decl env) branch

and resolve_structure env (s : Ast.struct_decl) =
  let name = s.struct_name.name in
  if Option.is_some (lookup_struct env name) then
    err env s.struct_name.loc "structure %s is declared twice" name;
  List.iter
    (fun (f : Ast.var_decl) -> resolve_variable env ~struct_name:(Some name) f)
    s.struct_fields;
  let fields =
    List.map (fun (f : Ast.var_decl) -> f.var_name.name) s.struct_fields
  in
  let serial = Option.map (resolve_serial_items env) s.struct_serial in
  let strct : Ir.strct =
    {
      s_name = name;
      s_private = s.struct_private;
      s_fields = fields;
      s_serial = serial;
      s_loc = s.struct_loc;
    }
  in
  env.structs <- strct :: env.structs

let resolve_device_param env (p : Ast.device_param) =
  let name = p.dp_name.name in
  if Option.is_some (lookup_port env name) || Option.is_some (lookup_const env name)
  then err env p.dp_name.loc "device parameter %s is declared twice" name;
  match p.dp_kind with
  | Ast.DP_port { width; offsets } ->
      if width <> 8 && width <> 16 && width <> 32 then
        err env p.dp_loc "port width must be 8, 16 or 32 bits (got %d)" width;
      let offsets =
        if Ast.int_set_span offsets > 65536 then begin
          err env p.dp_loc "port %s has more than 65536 offsets" name;
          { offsets with Ast.items = [ Ast.Single 0 ] }
        end
        else offsets
      in
      let port : Ir.port =
        {
          p_name = name;
          p_width = width;
          p_offsets = Ast.int_set_values offsets;
          p_index = List.length env.ports;
          p_loc = p.dp_loc;
        }
      in
      env.ports <- port :: env.ports
  | Ast.DP_const ty ->
      env.consts <- (name, resolve_dtype env ty) :: env.consts

let elaborate ?(config = []) (d : Ast.device) =
  let env =
    {
      diags = Diagnostics.create ();
      config;
      ports = [];
      consts = [];
      regs = [];
      templates = [];
      vars = [];
      structs = [];
    }
  in
  List.iter (resolve_device_param env) d.dev_params;
  List.iter (resolve_decl env) d.dev_decls;
  if Diagnostics.has_errors env.diags then Error env.diags
  else
    Ok
      {
        Ir.d_name = d.dev_name.name;
        d_ports = List.rev env.ports;
        d_consts = List.rev env.consts;
        d_regs = List.rev env.regs;
        d_templates = List.rev env.templates;
        d_vars = List.rev env.vars;
        d_structs = List.rev env.structs;
        d_loc = d.dev_loc;
      }

let elaborate_string ?config ?file src =
  match Parser.parse_device_result ?file src with
  | Error item ->
      let diags = Diagnostics.create () in
      Diagnostics.error diags item.Diagnostics.loc "%s" item.Diagnostics.message;
      Error diags
  | Ok ast -> elaborate ?config ast
