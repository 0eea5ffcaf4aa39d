module Diagnostics = Devil_syntax.Diagnostics
module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Resolve = Devil_ir.Resolve
module Mask = Devil_bits.Mask
module Bitpat = Devil_bits.Bitpat

type ctx = { diags : Diagnostics.t; device : Ir.device }

let err ctx loc fmt = Diagnostics.error ctx.diags loc fmt
let warn ctx loc fmt = Diagnostics.warning ctx.diags loc fmt

(* {1 Strong typing: enumerated types} *)

let check_enum_cases ctx ~loc ~what (cases : Dtype.enum_case list) =
  (match cases with
  | [] -> err ctx loc "%s: enumerated type has no case" what
  | first :: rest ->
      let w = Bitpat.width first.pattern in
      List.iter
        (fun (c : Dtype.enum_case) ->
          if Bitpat.width c.pattern <> w then
            err ctx loc
              "%s: case %s has a %d-bit pattern; other cases use %d bits" what
              c.case_name (Bitpat.width c.pattern) w)
        rest);
  (* No double definition: symbols and exact duplicate patterns. *)
  let rec dup_names = function
    | [] -> ()
    | (c : Dtype.enum_case) :: rest ->
        if List.exists (fun c' -> String.equal c'.Dtype.case_name c.case_name) rest
        then err ctx loc "%s: enumeration symbol %s is defined twice" what
            c.case_name;
        dup_names rest
  in
  dup_names cases;
  let rec dup_patterns = function
    | [] -> ()
    | (c : Dtype.enum_case) :: rest ->
        List.iter
          (fun (c' : Dtype.enum_case) ->
            if
              Bitpat.equal c.pattern c'.pattern
              && (Dtype.writable_case c.dir = Dtype.writable_case c'.dir
                 || Dtype.readable_case c.dir = Dtype.readable_case c'.dir)
            then
              err ctx loc "%s: cases %s and %s share the bit pattern %s" what
                c.case_name c'.case_name
                (Bitpat.to_string c.pattern))
          rest;
        dup_patterns rest
  in
  dup_patterns cases;
  (* Writable cases need an exact pattern: they must denote one value. *)
  List.iter
    (fun (c : Dtype.enum_case) ->
      if Dtype.writable_case c.dir && not (Bitpat.is_exact c.pattern) then
        err ctx loc
          "%s: writable case %s has a wildcard pattern and denotes no single \
           value"
          what c.case_name)
    cases

(* Readable enum cases must be exhaustive over the variable's width
   ("Read elements of a type mapping must be exhaustive"). *)
let check_enum_read_exhaustive ctx (v : Ir.var) cases =
  let w = Ir.var_width v in
  if w <= 16 then
    let readable = List.filter (fun c -> Dtype.readable_case c.Dtype.dir) cases in
    if readable <> [] then
      let missing = ref None in
      (let n = 1 lsl w in
       let i = ref 0 in
       while !missing = None && !i < n do
         if
           not
             (List.exists (fun c -> Bitpat.matches c.Dtype.pattern !i) readable)
         then missing := Some !i;
         incr i
       done);
      match !missing with
      | Some raw ->
          err ctx v.v_loc
            "variable %s: read mapping is not exhaustive (value %d matches no \
             readable case)"
            v.v_name raw
      | None -> ()

(* {1 Strong typing: variables} *)

let var_readable ctx (v : Ir.var) =
  v.Ir.v_chunks <> []
  && List.for_all
       (fun (c : Ir.chunk) ->
         match Ir.find_reg ctx.device c.c_reg with
         | Some r -> Ir.reg_readable r
         | None -> false)
       v.v_chunks

let var_writable ctx (v : Ir.var) =
  v.Ir.v_chunks <> []
  && List.for_all
       (fun (c : Ir.chunk) ->
         match Ir.find_reg ctx.device c.c_reg with
         | Some r -> Ir.reg_writable r
         | None -> false)
       v.v_chunks

let check_var_type ctx (v : Ir.var) =
  let width = Ir.var_width v in
  (match v.v_type with
  | Dtype.Bool ->
      if v.v_chunks <> [] && width <> 1 then
        err ctx v.v_loc "variable %s: bool requires 1 bit, found %d" v.v_name
          width
  | Dtype.Int { bits; signed } ->
      if v.v_chunks <> [] && bits <> width then
        err ctx v.v_loc
          "variable %s: type %sint(%d) does not match its %d defined bit(s)"
          v.v_name
          (if signed then "signed " else "")
          bits width
  | Dtype.Int_set { bits; _ } ->
      if v.v_chunks <> [] && bits > width then
        err ctx v.v_loc
          "variable %s: range type needs %d bits but only %d are defined"
          v.v_name bits width
  | Dtype.Enum cases ->
      check_enum_cases ctx ~loc:v.v_loc
        ~what:(Printf.sprintf "variable %s" v.v_name)
        cases;
      (match cases with
      | c :: _ when v.v_chunks <> [] && Bitpat.width c.Dtype.pattern <> width
        ->
          err ctx v.v_loc
            "variable %s: enumeration patterns are %d bits wide but the \
             variable has %d bit(s)"
            v.v_name
            (Bitpat.width c.Dtype.pattern)
            width
      | _ -> ());
      if var_readable ctx v then check_enum_read_exhaustive ctx v cases;
      (* Usage constraints: a read mapping on an unreadable variable is
         dead, and symmetrically for writes. *)
      if
        v.v_chunks <> []
        && List.exists (fun c -> Dtype.readable_case c.Dtype.dir) cases
        && not (var_readable ctx v)
      then
        err ctx v.v_loc
          "variable %s: type has read mappings but the variable is not \
           readable"
          v.v_name;
      if
        v.v_chunks <> []
        && List.exists (fun c -> Dtype.writable_case c.Dtype.dir) cases
        && not (var_writable ctx v)
      then
        err ctx v.v_loc
          "variable %s: type has write mappings but the variable is not \
           writable"
          v.v_name);
  (* Chunk bits must fall on covered mask positions. *)
  List.iter
    (fun (c : Ir.chunk) ->
      match Ir.find_reg ctx.device c.c_reg with
      | None -> ()
      | Some r ->
          List.iter
            (fun (hi, lo) ->
              for bit = lo to hi do
                if bit >= 0 && bit < Mask.width r.r_mask then
                  match Mask.bit r.r_mask bit with
                  | Mask.Covered -> ()
                  | Mask.Forced _ ->
                      err ctx v.v_loc
                        "variable %s uses bit %d of %s, which the mask forces \
                         to a fixed value"
                        v.v_name bit r.r_name
                  | Mask.Irrelevant ->
                      err ctx v.v_loc
                        "variable %s uses bit %d of %s, which the mask marks \
                         irrelevant"
                        v.v_name bit r.r_name
              done)
            c.c_ranges)
    v.v_chunks

(* {1 Strong typing: actions} *)

let check_operand_against ctx ~loc ~who ~target_ty (o : Ir.operand) =
  match o with
  | Ir.O_any -> ()
  | Ir.O_int n -> (
      match Dtype.validate_write target_ty (Value.Int n) with
      | Ok () -> ()
      | Error msg -> err ctx loc "%s: %s" who msg)
  | Ir.O_bool b -> (
      match Dtype.validate_write target_ty (Value.Bool b) with
      | Ok () -> ()
      | Error msg -> err ctx loc "%s: %s" who msg)
  | Ir.O_enum name -> (
      match Dtype.validate_write target_ty (Value.Enum name) with
      | Ok () -> ()
      | Error msg -> err ctx loc "%s: %s" who msg)
  | Ir.O_var src -> (
      match Ir.find_var ctx.device src with
      | None -> err ctx loc "%s: unknown source variable %s" who src
      | Some sv ->
          if Dtype.width sv.v_type <> Dtype.width target_ty then
            err ctx loc
              "%s: source variable %s (%d bits) does not fit the target (%d \
               bits)"
              who src (Dtype.width sv.v_type) (Dtype.width target_ty))
  | Ir.O_param p ->
      (* Template parameters range over integers; acceptable for any
         integer-kind target. Their ranges were validated per template. *)
      (match target_ty with
      | Dtype.Int _ | Dtype.Int_set _ -> ()
      | Dtype.Bool | Dtype.Enum _ ->
          err ctx loc "%s: parameter %s cannot be assigned to this target" who
            p)

let check_action ctx ~loc ~who (a : Ir.action) =
  List.iter
    (fun (assignment : Ir.assignment) ->
      match assignment with
      | Ir.Set_var { target; value } -> (
          match Ir.find_var ctx.device target with
          | None -> err ctx loc "%s: unknown variable %s" who target
          | Some tv ->
              check_operand_against ctx ~loc ~who ~target_ty:tv.v_type value)
      | Ir.Set_struct { target; fields } -> (
          match Ir.find_struct ctx.device target with
          | None -> err ctx loc "%s: unknown structure %s" who target
          | Some s ->
              List.iter
                (fun (fname, value) ->
                  if not (List.mem fname s.s_fields) then
                    err ctx loc "%s: %s is not a field of structure %s" who
                      fname target
                  else
                    match Ir.find_var ctx.device fname with
                    | None -> ()
                    | Some fv ->
                        check_operand_against ctx ~loc ~who
                          ~target_ty:fv.v_type value)
                fields;
              List.iter
                (fun fname ->
                  if
                    not
                      (List.exists
                         (fun (f, _) -> String.equal f fname)
                         fields)
                  then
                    err ctx loc
                      "%s: structure assignment to %s leaves field %s \
                       undefined"
                      who target fname)
                s.s_fields))
    a

let check_all_actions ctx =
  List.iter
    (fun (r : Ir.reg) ->
      let who = Printf.sprintf "register %s" r.r_name in
      check_action ctx ~loc:r.r_loc ~who r.r_pre;
      check_action ctx ~loc:r.r_loc ~who r.r_post;
      check_action ctx ~loc:r.r_loc ~who r.r_set)
    ctx.device.d_regs;
  List.iter
    (fun (t : Ir.template) ->
      let who = Printf.sprintf "register template %s" t.t_name in
      check_action ctx ~loc:t.t_loc ~who t.t_pre;
      check_action ctx ~loc:t.t_loc ~who t.t_post;
      check_action ctx ~loc:t.t_loc ~who t.t_set)
    ctx.device.d_templates;
  List.iter
    (fun (v : Ir.var) ->
      let who = Printf.sprintf "variable %s" v.v_name in
      check_action ctx ~loc:v.v_loc ~who v.v_pre;
      check_action ctx ~loc:v.v_loc ~who v.v_post;
      check_action ctx ~loc:v.v_loc ~who v.v_set)
    ctx.device.d_vars

(* {1 Strong typing: registers vs ports} *)

let check_reg_ports ctx =
  let check_point (r : Ir.reg) (lp : Ir.located_port) =
    match Ir.find_port ctx.device lp.lp_port with
    | None -> err ctx r.r_loc "register %s: unknown port %s" r.r_name lp.lp_port
    | Some p ->
        if r.r_size <> p.p_width then
          err ctx r.r_loc
            "register %s is %d bits wide but port %s transfers %d bits"
            r.r_name r.r_size p.p_name p.p_width
  in
  List.iter
    (fun (r : Ir.reg) ->
      (match (r.r_read, r.r_write) with
      | None, None ->
          err ctx r.r_loc "register %s is bound to no port" r.r_name
      | _ -> ());
      Option.iter (check_point r) r.r_read;
      Option.iter (check_point r) r.r_write)
    ctx.device.d_regs

(* {1 Trigger sharing (§2.1)} *)

let check_trigger_sharing ctx =
  List.iter
    (fun (r : Ir.reg) ->
      let vars = Ir.vars_of_reg ctx.device r.r_name in
      (* A write to any variable of the register rewrites the whole
         register, re-firing the side effects of its siblings; a shared
         write-trigger variable therefore needs a neutral value (an
         [except] exemption, or a [for] exemption whose complement is
         neutral). *)
      if List.length vars > 1 then
        List.iter
          (fun (v : Ir.var) ->
            match v.v_behaviour.b_trigger with
            | Some { tr_write = true; tr_exempt = None; _ } ->
                err ctx v.v_loc
                  "variable %s has a write trigger and shares register %s \
                   with other variables, but provides no neutral value"
                  v.v_name r.r_name
            | Some _ | None -> ())
          vars)
    ctx.device.d_regs

(* {1 No omission} *)

let reg_points (r : Ir.reg) =
  List.filter_map
    (fun x -> x)
    [
      Option.map (fun lp -> (lp, Ir.Read)) r.r_read;
      Option.map (fun lp -> (lp, Ir.Write)) r.r_write;
    ]

let template_points (t : Ir.template) =
  List.filter_map
    (fun x -> x)
    [
      Option.map (fun lp -> (lp, Ir.Read)) t.t_read;
      Option.map (fun lp -> (lp, Ir.Write)) t.t_write;
    ]

let check_no_omission ctx =
  let d = ctx.device in
  (* Ports and port offsets. *)
  let used_offsets =
    List.concat_map (fun r -> List.map fst (reg_points r)) d.d_regs
    @ List.concat_map (fun t -> List.map fst (template_points t)) d.d_templates
  in
  List.iter
    (fun (p : Ir.port) ->
      let uses =
        List.filter (fun (lp : Ir.located_port) -> String.equal lp.lp_port p.p_name) used_offsets
      in
      if uses = [] then err ctx p.p_loc "port %s is never used" p.p_name
      else
        List.iter
          (fun off ->
            if
              not
                (List.exists
                   (fun (lp : Ir.located_port) -> lp.lp_offset = off)
                   uses)
            then
              err ctx p.p_loc "offset %d of port %s is never used" off
                p.p_name)
          p.p_offsets)
    d.d_ports;
  (* Registers: every register must carry a variable bit or take part in
     a serialization order. *)
  let serial_regs =
    List.concat_map
      (fun (v : Ir.var) ->
        match v.v_serial with
        | Some items -> List.map (fun (i : Ir.serial_item) -> i.si_reg) items
        | None -> [])
      d.d_vars
    @ List.concat_map
        (fun (s : Ir.strct) ->
          match s.s_serial with
          | Some items -> List.map (fun (i : Ir.serial_item) -> i.si_reg) items
          | None -> [])
        d.d_structs
  in
  List.iter
    (fun (r : Ir.reg) ->
      let used =
        Ir.vars_of_reg d r.r_name <> [] || List.mem r.r_name serial_regs
      in
      if not used then
        err ctx r.r_loc "register %s defines no variable" r.r_name)
    d.d_regs;
  (* Register bits: every '.' bit covered exactly once (the coverage
     upper bound is the "no overlap" rule, reported here jointly). *)
  List.iter
    (fun (r : Ir.reg) ->
      let counts = Array.make r.r_size 0 in
      List.iter
        (fun (v : Ir.var) ->
          List.iter
            (fun (c : Ir.chunk) ->
              if String.equal c.c_reg r.r_name then
                List.iter
                  (fun (hi, lo) ->
                    for bit = max 0 lo to min (r.r_size - 1) hi do
                      counts.(bit) <- counts.(bit) + 1
                    done)
                  c.c_ranges)
            v.v_chunks)
        d.d_vars;
      for bit = 0 to r.r_size - 1 do
        match Mask.bit r.r_mask bit with
        | Mask.Covered ->
            if counts.(bit) = 0 then
              err ctx r.r_loc "bit %d of register %s is never used" bit
                r.r_name
            else if counts.(bit) > 1 then
              err ctx r.r_loc
                "bit %d of register %s is used by two different variables" bit
                r.r_name
        | Mask.Forced _ | Mask.Irrelevant ->
            if counts.(bit) > 1 then
              err ctx r.r_loc
                "bit %d of register %s is used by two different variables" bit
                r.r_name
      done)
    d.d_regs;
  (* Configuration parameters must be tested by a condition somewhere:
     an unused parameter is an omission like an unused port. A
     conditional-free elaboration cannot see which branch mentioned the
     parameter, so the test is against serialization conditions (the
     only place a constant can still appear in the IR); spec-level
     conditionals consumed during elaboration also count, which the
     elaborator guarantees by erroring on unknown parameters. *)
  List.iter
    (fun (name, _) ->
      let tested_in items =
        List.exists
          (fun (i : Ir.serial_item) ->
            match i.si_cond with
            | Some c -> String.equal c.sc_var name
            | None -> false)
          items
      in
      let used =
        List.exists
          (fun (v : Ir.var) ->
            match v.v_serial with Some items -> tested_in items | None -> false)
          d.d_vars
        || List.exists
             (fun (s : Ir.strct) ->
               match s.s_serial with
               | Some items -> tested_in items
               | None -> false)
             d.d_structs
      in
      if not used then
        warn ctx d.d_loc
          "configuration parameter %s is not used by this elaboration" name)
    d.d_consts;
  (* Private variables should be referenced somewhere. *)
  let referenced_in_action (a : Ir.action) name =
    List.exists
      (fun (assignment : Ir.assignment) ->
        match assignment with
        | Ir.Set_var { target; value } ->
            String.equal target name
            || (match value with Ir.O_var v -> String.equal v name | _ -> false)
        | Ir.Set_struct { target; fields } ->
            String.equal target name
            || List.exists
                 (fun (f, value) ->
                   String.equal f name
                   ||
                   match value with
                   | Ir.O_var v -> String.equal v name
                   | _ -> false)
                 fields)
      a
  in
  List.iter
    (fun (v : Ir.var) ->
      if v.v_private && v.v_chunks <> [] then begin
        let used =
          List.exists
            (fun (r : Ir.reg) ->
              referenced_in_action r.r_pre v.v_name
              || referenced_in_action r.r_post v.v_name
              || referenced_in_action r.r_set v.v_name)
            d.d_regs
          || List.exists
               (fun (t : Ir.template) ->
                 referenced_in_action t.t_pre v.v_name
                 || referenced_in_action t.t_post v.v_name
                 || referenced_in_action t.t_set v.v_name)
               d.d_templates
          || List.exists
               (fun (v' : Ir.var) ->
                 (not (String.equal v'.v_name v.v_name))
                 && (referenced_in_action v'.v_pre v.v_name
                    || referenced_in_action v'.v_post v.v_name
                    || referenced_in_action v'.v_set v.v_name))
               d.d_vars
        in
        if not used then
          warn ctx v.v_loc "private variable %s is never referenced" v.v_name
      end)
    d.d_vars

(* {1 No overlapping definitions: access points} *)

(* Two registers on the same access point are compatible when their
   pre-actions assign provably different constants to a common variable,
   when their masks cover disjoint bit sets, or when a serialization
   order sequences them. *)

let constant_assignments (a : Ir.action) =
  List.filter_map
    (fun (assignment : Ir.assignment) ->
      match assignment with
      | Ir.Set_var { target; value } -> (
          match value with
          | Ir.O_int n -> Some (target, Value.Int n)
          | Ir.O_bool b -> Some (target, Value.Bool b)
          | Ir.O_enum e -> Some (target, Value.Enum e)
          | Ir.O_any | Ir.O_var _ | Ir.O_param _ -> None)
      | Ir.Set_struct _ -> None)
    a

let disjoint_pre (a : Ir.action) (b : Ir.action) =
  let ca = constant_assignments a and cb = constant_assignments b in
  List.exists
    (fun (t, va) ->
      List.exists
        (fun (t', vb) -> String.equal t t' && not (Value.equal va vb))
        cb)
    ca

let disjoint_masks (a : Mask.t) (b : Mask.t) =
  Mask.covered_value a land Mask.covered_value b = 0

(* Two masks also separate registers when some bit position is forced
   to different values: the hardware decodes the write by that bit
   (e.g. the 8259A tells ICW1 from OCW2/OCW3 by bit 4). *)
let distinguishing_masks (a : Mask.t) (b : Mask.t) =
  Mask.width a = Mask.width b
  && (let found = ref false in
      for i = 0 to Mask.width a - 1 do
        match (Mask.bit a i, Mask.bit b i) with
        | Mask.Forced x, Mask.Forced y when x <> y -> found := true
        | (Mask.Forced _ | Mask.Covered | Mask.Irrelevant), _ -> ()
      done;
      !found)

(* A pre-action that writes a whole structure drives an addressing
   automaton (e.g. the CS4236B extended-register access sequence); the
   registers it guards are separated from their peers by device state
   rather than by a comparable constant. *)
let automaton_pre (a : Ir.action) =
  List.exists
    (function Ir.Set_struct _ -> true | Ir.Set_var _ -> false)
    a

let serialized_together ctx r1 r2 =
  let lists =
    List.filter_map (fun (v : Ir.var) -> v.v_serial) ctx.device.d_vars
    @ List.filter_map (fun (s : Ir.strct) -> s.s_serial) ctx.device.d_structs
  in
  List.exists
    (fun items ->
      let regs = List.map (fun (i : Ir.serial_item) -> i.si_reg) items in
      List.mem r1 regs && List.mem r2 regs)
    lists

let same_template_family (r1 : Ir.reg) (r2 : Ir.reg) =
  match (r1.r_from_template, r2.r_from_template) with
  | Some (t1, _), Some (t2, _) -> String.equal t1 t2
  | _ -> false

let check_no_overlap_points ctx =
  let d = ctx.device in
  let points =
    List.concat_map
      (fun (r : Ir.reg) ->
        List.map (fun (lp, dir) -> (lp, dir, r)) (reg_points r))
      d.d_regs
  in
  let rec pairwise = function
    | [] -> ()
    | ((lp1 : Ir.located_port), dir1, (r1 : Ir.reg)) :: rest ->
        List.iter
          (fun ((lp2 : Ir.located_port), dir2, (r2 : Ir.reg)) ->
            if
              String.equal lp1.lp_port lp2.lp_port
              && lp1.lp_offset = lp2.lp_offset && dir1 = dir2
              && not (String.equal r1.r_name r2.r_name)
            then
              let compatible =
                disjoint_pre r1.r_pre r2.r_pre
                || disjoint_masks r1.r_mask r2.r_mask
                || distinguishing_masks r1.r_mask r2.r_mask
                || serialized_together ctx r1.r_name r2.r_name
                || same_template_family r1 r2
                || automaton_pre r1.r_pre <> automaton_pre r2.r_pre
              in
              if not compatible then
                err ctx r2.r_loc
                  "registers %s and %s overlap on %s@%d without disjoint \
                   pre-actions, masks, or a serialization order"
                  r1.r_name r2.r_name lp1.lp_port lp1.lp_offset)
          rest;
        pairwise rest
  in
  pairwise points;
  (* A concrete register also must not collide with a template covering
     the same point, unless it is an instance of that template or is
     distinguished by pre-actions. *)
  List.iter
    (fun (t : Ir.template) ->
      List.iter
        (fun ((lpt : Ir.located_port), dirt) ->
          List.iter
            (fun (r : Ir.reg) ->
              let from_t =
                match r.r_from_template with
                | Some (name, _) -> String.equal name t.t_name
                | None -> false
              in
              if not from_t then
                List.iter
                  (fun ((lpr : Ir.located_port), dirr) ->
                    if
                      String.equal lpt.lp_port lpr.lp_port
                      && lpt.lp_offset = lpr.lp_offset && dirt = dirr
                      && not (disjoint_pre t.t_pre r.r_pre)
                      && not (disjoint_masks t.t_mask r.r_mask)
                      && not (distinguishing_masks t.t_mask r.r_mask)
                      && automaton_pre t.t_pre = automaton_pre r.r_pre
                    then
                      err ctx r.r_loc
                        "register %s overlaps the parameterized register %s \
                         on %s@%d"
                        r.r_name t.t_name lpt.lp_port lpt.lp_offset)
                  (reg_points r))
            d.d_regs)
        (template_points t))
    d.d_templates

(* {1 Serialization consistency} *)

let check_serials ctx =
  let d = ctx.device in
  let check_list ~loc ~who items ~expected_regs =
    (* Every register the entity spans must be sequenced, and each at
       most once per condition path (unconditional duplicates are
       always an error). *)
    let rec dups = function
      | [] -> ()
      | (i : Ir.serial_item) :: rest ->
          if
            i.si_cond = None
            && List.exists
                 (fun (j : Ir.serial_item) ->
                   j.si_cond = None && String.equal j.si_reg i.si_reg)
                 rest
          then err ctx loc "%s: register %s is serialized twice" who i.si_reg;
          dups rest
    in
    dups items;
    List.iter
      (fun reg ->
        if
          not
            (List.exists
               (fun (i : Ir.serial_item) -> String.equal i.si_reg reg)
               items)
        then
          err ctx loc "%s: register %s is not covered by the serialization"
            who reg)
      expected_regs
  in
  List.iter
    (fun (v : Ir.var) ->
      match v.v_serial with
      | None -> ()
      | Some items ->
          let regs = List.map (fun (r : Ir.reg) -> r.r_name) (Ir.regs_of_var d v) in
          check_list ~loc:v.v_loc
            ~who:(Printf.sprintf "variable %s" v.v_name)
            items ~expected_regs:regs)
    d.d_vars;
  List.iter
    (fun (s : Ir.strct) ->
      match s.s_serial with
      | None -> ()
      | Some items ->
          let regs =
            List.concat_map
              (fun fname ->
                match Ir.find_var d fname with
                | Some v ->
                    List.map (fun (r : Ir.reg) -> r.r_name) (Ir.regs_of_var d v)
                | None -> [])
              s.s_fields
            |> List.sort_uniq String.compare
          in
          check_list ~loc:s.s_loc
            ~who:(Printf.sprintf "structure %s" s.s_name)
            items ~expected_regs:regs;
          (* Serialization conditions must test fields of the structure
             (their value is known when the structure is written) or
             configuration constants. *)
          List.iter
            (fun (i : Ir.serial_item) ->
              match i.si_cond with
              | None -> ()
              | Some c ->
                  if
                    (not (List.mem c.sc_var s.s_fields))
                    && not
                         (List.exists
                            (fun (n, _) -> String.equal n c.sc_var)
                            d.d_consts)
                  then
                    err ctx s.s_loc
                      "structure %s: serialization condition tests %s, which \
                       is not a field of the structure"
                      s.s_name c.sc_var)
            items)
    d.d_structs

(* {1 Entry points} *)

let check (device : Ir.device) =
  let ctx = { diags = Diagnostics.create (); device } in
  List.iter (fun v -> check_var_type ctx v) device.d_vars;
  check_all_actions ctx;
  check_reg_ports ctx;
  check_trigger_sharing ctx;
  check_no_omission ctx;
  check_no_overlap_points ctx;
  check_serials ctx;
  ctx.diags

let check_ok device = not (Diagnostics.has_errors (check device))

let compile ?config ?file src =
  match Resolve.elaborate_string ?config ?file src with
  | Error diags -> Error diags
  | Ok device ->
      let diags = check device in
      if Diagnostics.has_errors diags then Error diags else Ok device
