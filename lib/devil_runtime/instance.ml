module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Bitops = Devil_bits.Bitops
module Mask = Devil_bits.Mask

exception Device_error = Plan.Device_error
(* One exception serves both engines, so existing handlers that match
   [Instance.Device_error] also catch errors raised by compiled plans. *)

let fail fmt = Format.kasprintf (fun s -> raise (Device_error s)) fmt

(* The interpreting engine: re-derives addresses, masks and bit
   patterns from the IR on every access. Slower than {!Plan}, but its
   simplicity makes it the differential oracle ([test/test_plan_diff]):
   the compiled engine must be observationally identical to this
   module. *)
module Interp = struct
type t = {
  device : Ir.device;
  bus : Bus.t;
  bases : (string * int) list;
  debug : bool;
  label : string;  (* names the instance in traces and metrics *)
  ctx : Ctx.t option;
  trace : Trace.t option;  (* the context's handles *)
  metrics : Metrics.t option;
  profile : Profile.t option;
  reg_cache : (string, int) Hashtbl.t;
  struct_cache : (string, (string, int) Hashtbl.t) Hashtbl.t;
  mem : (string, Value.t) Hashtbl.t;  (* memory-cell variables *)
  mutable depth : int;  (* action recursion guard *)
}

let device t = t.device

let create ?(debug = false) ?label ?ctx device ~bus ~bases =
  List.iter
    (fun (p : Ir.port) ->
      if not (List.mem_assoc p.p_name bases) then
        fail "port %s has no base address" p.p_name)
    device.Ir.d_ports;
  {
    device;
    bus;
    bases;
    debug;
    label = (match label with Some l -> l | None -> device.Ir.d_name);
    ctx;
    trace = Option.bind ctx (fun (c : Ctx.t) -> c.trace);
    metrics = Option.bind ctx (fun (c : Ctx.t) -> c.metrics);
    profile = Option.bind ctx (fun (c : Ctx.t) -> c.profile);
    reg_cache = Hashtbl.create 17;
    struct_cache = Hashtbl.create 7;
    mem = Hashtbl.create 7;
    depth = 0;
  }

(* {1 Observability hooks}

   Every hook matches on the option handles first, so with
   observability disabled the cost is the option match itself —
   nothing is allocated, no name is concatenated. *)

let note_reg_io t (r : Ir.reg) ~write raw =
  (match t.metrics with
  | Some m ->
      let dir = if write then "writes" else "reads" in
      Metrics.incr m ("io." ^ t.label ^ ".reg_" ^ dir);
      Metrics.incr m ("reg." ^ t.label ^ "." ^ r.Ir.r_name ^ "." ^ dir)
  | None -> ());
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (if write then Trace.Reg_write { dev = t.label; reg = r.Ir.r_name; raw }
         else Trace.Reg_read { dev = t.label; reg = r.Ir.r_name; raw })
  | None -> ()

let note_cache t reg_name ~hit =
  (match t.metrics with
  | Some m ->
      Metrics.incr m
        ("cache." ^ t.label ^ "." ^ if hit then "hits" else "misses")
  | None -> ());
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (if hit then Trace.Cache_hit { dev = t.label; reg = reg_name }
         else Trace.Cache_miss { dev = t.label; reg = reg_name })
  | None -> ()

let note_serialized t ~owner order =
  match t.trace with
  | Some tr ->
      Trace.emit tr
        (Trace.Serialized
           {
             dev = t.label;
             owner;
             order = List.map (fun (r : Ir.reg) -> r.Ir.r_name) order;
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

let invalidate_cache t =
  Hashtbl.reset t.reg_cache;
  Hashtbl.reset t.struct_cache;
  match t.trace with
  | Some tr -> Trace.emit tr (Trace.Cache_invalidated { dev = t.label })
  | None -> ()

let cached_raw t reg = Hashtbl.find_opt t.reg_cache reg

(* {1 Lookups} *)

let the_var t name =
  match Ir.find_var t.device name with
  | Some v -> v
  | None -> fail "unknown device variable %s" name

let the_reg t name =
  match Ir.find_reg t.device name with
  | Some r -> r
  | None -> fail "unknown register %s" name

let the_struct t name =
  match Ir.find_struct t.device name with
  | Some s -> s
  | None -> fail "unknown structure %s" name

let point_addr t (lp : Ir.located_port) =
  match List.assoc_opt lp.lp_port t.bases with
  | Some base -> base + lp.lp_offset
  | None -> fail "port %s has no base address" lp.lp_port

let point_width t (lp : Ir.located_port) =
  match Ir.find_port t.device lp.lp_port with
  | Some p -> p.p_width
  | None -> fail "unknown port %s" lp.lp_port

(* {1 Bit plumbing} *)

(* Extract a variable's raw value from per-register raw images,
   MSB-first across chunks and ranges. *)
let gather_bits (v : Ir.var) ~(image : string -> int) =
  List.fold_left
    (fun acc (c : Ir.chunk) ->
      let reg_raw = image c.c_reg in
      List.fold_left
        (fun acc (hi, lo) ->
          let w = hi - lo + 1 in
          (acc lsl w) lor Bitops.extract ~hi ~lo reg_raw)
        acc c.c_ranges)
    0 v.v_chunks

(* Distribute a variable's raw value into per-register images. *)
let scatter_bits (v : Ir.var) ~raw ~(update : string -> (int -> int) -> unit) =
  let total = Ir.var_width v in
  let consumed = ref 0 in
  List.iter
    (fun (c : Ir.chunk) ->
      List.iter
        (fun (hi, lo) ->
          let w = hi - lo + 1 in
          let field = Bitops.extract ~hi:(total - !consumed - 1)
              ~lo:(total - !consumed - w) raw
          in
          update c.c_reg (fun img -> Bitops.insert ~hi ~lo ~field img);
          consumed := !consumed + w)
        c.c_ranges)
    v.v_chunks

(* The raw bits a trigger variable's neutral value contributes when a
   sibling write must rebuild the register. *)
let neutral_raw t (v : Ir.var) =
  let encode value =
    match Dtype.encode v.v_type value with
    | Ok raw -> Some raw
    | Error _ -> None
  in
  match v.v_behaviour.b_trigger with
  | Some { tr_write = true; tr_exempt = Some (Ir.Neutral value); _ } ->
      encode value
  | Some { tr_write = true; tr_exempt = Some (Ir.Only value); _ } ->
      (* Any value other than the firing one is neutral. *)
      (match encode value with
      | Some raw -> Some (if raw = 0 then 1 land Bitops.width_mask (Ir.var_width v) else 0)
      | None -> Some 0)
  | Some _ | None ->
      ignore t;
      None

(* {1 Register I/O (with pre/post/set actions)} *)

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

and read_reg_io t (r : Ir.reg) =
  match r.r_read with
  | None -> fail "register %s is not readable" r.r_name
  | Some lp ->
      run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
      let raw =
        t.bus.Bus.read ~width:(point_width t lp) ~addr:(point_addr t lp)
      in
      run_action ~what:(Trace.Post, r.r_name) t r.r_post;
      Hashtbl.replace t.reg_cache r.r_name raw;
      note_reg_io t r ~write:false raw;
      raw

and write_reg_io t (r : Ir.reg) raw =
  match r.r_write with
  | None -> fail "register %s is not writable" r.r_name
  | Some lp ->
      run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
      let frame = Mask.writable_frame r.r_mask ~value:raw in
      t.bus.Bus.write ~width:(point_width t lp) ~addr:(point_addr t lp)
        ~value:frame;
      run_action ~what:(Trace.Post, r.r_name) t r.r_post;
      run_action ~what:(Trace.Set, r.r_name) t r.r_set;
      Hashtbl.replace t.reg_cache r.r_name raw;
      note_reg_io t r ~write:true raw

(* Base image for rewriting a register: idempotent siblings keep their
   cached bits (zero if never written); a write-trigger sibling's side
   effect cannot be replayed, so its bits are always rebuilt from its
   neutral value (paper §2.1). A [volatile] sibling's cached bits may be
   stale — the device changes them behind the cache — so when the
   register can be re-read without side effects (readable, no read
   trigger on any sibling) it is refreshed first. [exclude] names the
   variables being rewritten, whose bits are about to be overwritten
   anyway and so never force the refresh. *)
and compose_base ?(exclude = []) t (r : Ir.reg) =
  let siblings = Ir.vars_of_reg t.device r.r_name in
  let refresh =
    Ir.reg_readable r
    && List.exists
         (fun (v : Ir.var) ->
           v.v_behaviour.b_volatile && not (List.mem v.v_name exclude))
         siblings
    && not
         (List.exists
            (fun (v : Ir.var) ->
              match v.v_behaviour.b_trigger with
              | Some { tr_read = true; _ } -> true
              | Some _ | None -> false)
            siblings)
  in
  if refresh then ignore (read_reg_io t r);
  let image =
    ref (Option.value (Hashtbl.find_opt t.reg_cache r.r_name) ~default:0)
  in
  List.iter
    (fun (v : Ir.var) ->
      match neutral_raw t v with
      | None -> ()
      | Some raw ->
          scatter_bits v ~raw ~update:(fun reg f ->
              if String.equal reg r.r_name then image := f !image))
    siblings;
  !image

(* {1 Actions} *)

and operand_value t ?self (o : Ir.operand) ~(target : Ir.var) : Value.t =
  match o with
  | Ir.O_int n -> Value.Int n
  | Ir.O_bool b -> Value.Bool b
  | Ir.O_enum name -> Value.Enum name
  | Ir.O_any -> (
      (* "Any value": materialize the cheapest member of the type. *)
      match target.v_type with
      | Dtype.Bool -> Value.Bool false
      | Dtype.Int _ -> Value.Int 0
      | Dtype.Int_set { values; _ } ->
          Value.Int (match values with v :: _ -> v | [] -> 0)
      | Dtype.Enum cases -> (
          match List.find_opt (fun c -> Dtype.writable_case c.Dtype.dir) cases with
          | Some c -> Value.Enum c.case_name
          | None -> fail "no writable case for wildcard value"))
  | Ir.O_var src -> (
      match self with
      | Some (name, value) when String.equal name src -> value
      | _ -> get_internal t src)
  | Ir.O_param p -> fail "unsubstituted register parameter %s" p

and run_action ?self ?what t (a : Ir.action) =
  match a with
  | [] -> ()
  | _ -> (
      (* Span keys mirror the compiled engine's; the interpreter builds
         them on the fly (it re-derives everything else per access
         too), but only after matching the handle, so the disabled path
         still allocates nothing. *)
      match (t.profile, what) with
      | Some p, Some (phase, owner) ->
          let s =
            Profile.enter p
              (t.label ^ "/action:" ^ owner ^ ":" ^ Trace.phase_label phase)
          in
          (match run_action_body ?self ?what t a with
          | () -> Profile.exit p s
          | exception e ->
              Profile.exit p s;
              raise e)
      | _ -> run_action_body ?self ?what t a)

and run_action_body ?self ?what t (a : Ir.action) =
  match a with
  | [] -> ()
  | _ ->
      (match (t.trace, what) with
      | Some tr, Some (phase, owner) ->
          Trace.emit tr
            (Trace.Action
               { dev = t.label; owner; phase; assignments = List.length a })
      | _ -> ());
      (* The depth guard lives here: actions are the only way accesses
         nest, and a self-referencing pre-action would otherwise loop. *)
      if t.depth > max_action_depth then
        fail "action recursion exceeds %d levels (cyclic pre-actions?)"
          max_action_depth;
      t.depth <- t.depth + 1;
      Fun.protect
        ~finally:(fun () -> t.depth <- t.depth - 1)
        (fun () ->
          List.iter
            (fun (assignment : Ir.assignment) ->
              match assignment with
              | Ir.Set_var { target; value } ->
                  let tv = the_var t target in
                  let v = operand_value t ?self value ~target:tv in
                  set_internal t target v
              | Ir.Set_struct { target; fields } ->
                  let values =
                    List.map
                      (fun (f, o) ->
                        let fv = the_var t f in
                        (f, operand_value t ?self o ~target:fv))
                      fields
                  in
                  set_struct_internal t target values)
            a)

(* {1 Variable reads} *)

and get_internal t name : Value.t =
  match t.profile with
  | None -> get_internal_body t name
  | Some p ->
      let s = Profile.enter p (t.label ^ "/var:" ^ name ^ ":read") in
      (match get_internal_body t name with
      | v ->
          Profile.exit p s;
          v
      | exception e ->
          Profile.exit p s;
          raise e)

and get_internal_body t name : Value.t =
  let v = the_var t name in
  note_var_read t name;
  if v.v_chunks = [] then
    (* Memory cell. *)
    match Hashtbl.find_opt t.mem name with
    | Some value -> value
    | None -> (
        match v.v_type with
        | Dtype.Bool -> Value.Bool false
        | Dtype.Int _ -> Value.Int 0
        | Dtype.Int_set { values; _ } ->
            Value.Int (match values with x :: _ -> x | [] -> 0)
        | Dtype.Enum _ -> fail "memory variable %s was never assigned" name)
  else
    match v.v_struct with
    | Some sname -> get_field t v sname
    | None -> get_standalone t v

and get_field t (v : Ir.var) sname =
  (* Field stubs consult the structure cache filled by [get_struct]
     (paper §2.1); fall back to the register cache for fields of
     write-through structures. *)
  let image reg =
    match Hashtbl.find_opt t.struct_cache sname with
    | Some images when Hashtbl.mem images reg -> Hashtbl.find images reg
    | _ -> (
        match Hashtbl.find_opt t.reg_cache reg with
        | Some raw -> raw
        | None ->
            fail
              "field %s of structure %s read before the structure (call \
               get_struct first)"
              v.v_name sname)
  in
  let raw = gather_bits v ~image in
  decode_checked t v raw

and get_standalone t (v : Ir.var) =
  run_action ~what:(Trace.Pre, v.v_name) t v.v_pre;
  let must_io =
    v.v_behaviour.b_volatile
    || (match v.v_behaviour.b_trigger with
       | Some { tr_read = true; _ } -> true
       | Some _ | None -> false)
  in
  let image reg_name =
    let r = the_reg t reg_name in
    if must_io then read_reg_io t r
    else
      match Hashtbl.find_opt t.reg_cache reg_name with
      | Some raw ->
          note_cache t reg_name ~hit:true;
          raw
      | None ->
          if Ir.reg_readable r then begin
            note_cache t reg_name ~hit:false;
            read_reg_io t r
          end
          else
            fail "variable %s is write-only and has no cached value" v.v_name
  in
  let raw = gather_bits v ~image in
  run_action ~what:(Trace.Post, v.v_name) t v.v_post;
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

(* {1 Variable writes} *)

and encode_checked (v : Ir.var) value =
  match Dtype.encode v.v_type value with
  | Ok raw -> raw
  | Error msg -> fail "variable %s: %s" v.v_name msg

and regs_in_chunk_order t (v : Ir.var) =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (c : Ir.chunk) ->
      if Hashtbl.mem seen c.c_reg then None
      else begin
        Hashtbl.add seen c.c_reg ();
        Some (the_reg t c.c_reg)
      end)
    v.v_chunks

and eval_serial_cond t ?self (c : Ir.serial_cond) =
  let actual =
    match self with
    | Some values -> (
        match List.assoc_opt c.sc_var values with
        | Some v -> v
        | None -> get_internal t c.sc_var)
    | None -> get_internal t c.sc_var
  in
  let var = the_var t c.sc_var in
  let expected = operand_value t c.sc_value ~target:var in
  let eq = Value.equal actual expected in
  if c.sc_negated then not eq else eq

and ordered_regs t ?self ~(serial : Ir.serial_item list option) ~default () =
  match serial with
  | None -> default
  | Some items ->
      List.filter_map
        (fun (item : Ir.serial_item) ->
          let enabled =
            match item.si_cond with
            | None -> true
            | Some c -> eval_serial_cond t ?self c
          in
          if enabled then Some (the_reg t item.si_reg) else None)
        items

and set_internal t name value =
  match t.profile with
  | None -> set_internal_body t name value
  | Some p ->
      let s = Profile.enter p (t.label ^ "/var:" ^ name ^ ":write") in
      (match set_internal_body t name value with
      | () -> Profile.exit p s
      | exception e ->
          Profile.exit p s;
          raise e)

and set_internal_body t name value =
  let v = the_var t name in
  if v.v_chunks = [] then begin
    (* Memory cell: validate against the type, then store. *)
    (match Dtype.validate_write v.v_type value with
    | Ok () -> ()
    | Error msg -> fail "variable %s: %s" name msg);
    Hashtbl.replace t.mem name value;
    note_var_write t name []
  end
  else begin
    let raw = encode_checked v value in
    run_action ~what:(Trace.Pre, v.v_name) t v.v_pre;
    let images = Hashtbl.create 4 in
    let regs = regs_in_chunk_order t v in
    List.iter
      (fun (r : Ir.reg) ->
        Hashtbl.replace images r.Ir.r_name (compose_base ~exclude:[ name ] t r))
      regs;
    scatter_bits v ~raw ~update:(fun reg f ->
        match Hashtbl.find_opt images reg with
        | Some img -> Hashtbl.replace images reg (f img)
        | None -> ());
    let order =
      ordered_regs t ~self:[ (name, value) ] ~serial:v.v_serial ~default:regs
        ()
    in
    (match v.v_serial with
    | Some _ -> note_serialized t ~owner:name order
    | None -> ());
    (* Emitted after compose/scatter — refresh reads and nested
       pre-action writes have already happened — and right before the
       register writes it announces. *)
    note_var_write t name (List.map (fun (r : Ir.reg) -> r.Ir.r_name) order);
    List.iter
      (fun (r : Ir.reg) -> write_reg_io t r (Hashtbl.find images r.Ir.r_name))
      order;
    (* Keep the owning structure's cache coherent. *)
    (match v.v_struct with
    | Some sname -> (
        match Hashtbl.find_opt t.struct_cache sname with
        | Some simages ->
            Hashtbl.iter (fun reg img -> Hashtbl.replace simages reg img) images
        | None -> ())
    | None -> ());
    run_action ~self:(name, value) ~what:(Trace.Set, v.v_name) t v.v_set;
    run_action ~what:(Trace.Post, v.v_name) t v.v_post
  end

(* {1 Structures} *)

and struct_regs t (s : Ir.strct) =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun fname ->
      let v = the_var t fname in
      List.filter_map
        (fun (c : Ir.chunk) ->
          if Hashtbl.mem seen c.c_reg then None
          else begin
            Hashtbl.add seen c.c_reg ();
            Some (the_reg t c.c_reg)
          end)
        v.v_chunks)
    s.s_fields

and set_struct_internal t name fields =
  match t.profile with
  | None -> set_struct_internal_body t name fields
  | Some p ->
      let sp = Profile.enter p (t.label ^ "/struct:" ^ name ^ ":write") in
      (match set_struct_internal_body t name fields with
      | () -> Profile.exit p sp
      | exception e ->
          Profile.exit p sp;
          raise e)

and set_struct_internal_body t name fields =
  let s = the_struct t name in
  List.iter
    (fun (f, _) ->
      if not (List.mem f s.s_fields) then
        fail "%s is not a field of structure %s" f name)
    fields;
  let regs = struct_regs t s in
  let images = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.reg) ->
      Hashtbl.replace images r.Ir.r_name (compose_base ~exclude:s.s_fields t r))
    regs;
  (* Encode every field: supplied values first, cached values for the
     rest (a field never written and not supplied is an error). *)
  let field_values =
    List.map
      (fun fname ->
        let v = the_var t fname in
        match List.assoc_opt fname fields with
        | Some value ->
            ignore (encode_checked v value);
            (fname, value)
        | None -> (
            match get_cached_field t v with
            | Some value -> (fname, value)
            | None ->
                fail
                  "structure %s: field %s has no supplied or cached value"
                  name fname))
      s.s_fields
  in
  List.iter
    (fun (fname, value) ->
      let v = the_var t fname in
      let raw = encode_checked v value in
      scatter_bits v ~raw ~update:(fun reg f ->
          match Hashtbl.find_opt images reg with
          | Some img -> Hashtbl.replace images reg (f img)
          | None -> ()))
    field_values;
  let order =
    ordered_regs t ~self:field_values ~serial:s.s_serial ~default:regs ()
  in
  (match s.s_serial with
  | Some _ -> note_serialized t ~owner:name order
  | None -> ());
  note_struct_write t name s.s_fields
    (List.map (fun (r : Ir.reg) -> r.Ir.r_name) order);
  List.iter
    (fun (r : Ir.reg) ->
      let image =
        match Hashtbl.find_opt images r.Ir.r_name with
        | Some img -> img
        | None ->
            (* A serialized register carrying no field of this
               structure: rebuild it from cache and neutrals. *)
            compose_base t r
      in
      write_reg_io t r image)
    order;
  (* Run per-field set actions with the new values in scope. *)
  List.iter
    (fun (fname, value) ->
      let v = the_var t fname in
      if List.exists (fun (f, _) -> String.equal f fname) fields then
        run_action ~self:(fname, value) ~what:(Trace.Set, fname) t v.v_set)
    field_values;
  let simages =
    match Hashtbl.find_opt t.struct_cache name with
    | Some m -> m
    | None ->
        let m = Hashtbl.create 8 in
        Hashtbl.replace t.struct_cache name m;
        m
  in
  Hashtbl.iter (fun reg img -> Hashtbl.replace simages reg img) images

and get_cached_field t (v : Ir.var) : Value.t option =
  let image reg =
    match v.v_struct with
    | Some sname -> (
        match Hashtbl.find_opt t.struct_cache sname with
        | Some images when Hashtbl.mem images reg -> Some (Hashtbl.find images reg)
        | _ -> Hashtbl.find_opt t.reg_cache reg)
    | None -> Hashtbl.find_opt t.reg_cache reg
  in
  let complete =
    List.for_all
      (fun (c : Ir.chunk) -> Option.is_some (image c.c_reg))
      v.v_chunks
  in
  if not complete then None
  else
    let raw =
      gather_bits v ~image:(fun reg ->
          match image reg with Some x -> x | None -> 0)
    in
    match Dtype.decode v.v_type raw with Ok v -> Some v | Error _ -> None

let get_struct_body t name (s : Ir.strct) =
  let images = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.reg) ->
      Hashtbl.replace images r.Ir.r_name (read_reg_io t r))
    (struct_regs t s);
  Hashtbl.replace t.struct_cache name images

let get_struct t name =
  let s = the_struct t name in
  if s.s_private then fail "structure %s is private" name;
  match t.profile with
  | None -> get_struct_body t name s
  | Some p ->
      Profile.span p
        (t.label ^ "/struct:" ^ name ^ ":read")
        (fun () -> get_struct_body t name s)

(* {1 Public entry points} *)

let check_public t name =
  let v = the_var t name in
  if v.v_private then
    fail "variable %s is private and not part of the device interface" name;
  v

let get t name =
  ignore (check_public t name);
  with_depth t (fun () -> get_internal t name)

let set t name value =
  ignore (check_public t name);
  with_depth t (fun () -> set_internal t name value)

let set_struct t name fields =
  let s = the_struct t name in
  if s.s_private then fail "structure %s is private" name;
  with_depth t (fun () -> set_struct_internal t name fields)

(* {1 Block transfers} *)

let block_reg t name =
  let v = the_var t name in
  if not v.v_behaviour.b_block then
    fail "variable %s has no block behaviour" name;
  match v.v_chunks with
  | [ { c_reg; c_ranges = [ (hi, lo) ] } ] ->
      let r = the_reg t c_reg in
      if lo <> 0 || hi <> r.r_size - 1 then
        fail "block variable %s must span its whole register" name;
      r
  | _ -> fail "block variable %s must map to a single register" name

let read_wide t name ~scale =
  let r = block_reg t name in
  match r.r_read with
  | None -> fail "register %s is not readable" r.r_name
  | Some lp ->
      let body () =
        with_depth t (fun () ->
            run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
            note_var_read t name;
            let v =
              t.bus.Bus.read ~width:(scale * point_width t lp)
                ~addr:(point_addr t lp)
            in
            run_action ~what:(Trace.Post, r.r_name) t r.r_post;
            v)
      in
      (match t.profile with
      | None -> body ()
      | Some p -> Profile.span p (t.label ^ "/var:" ^ name ^ ":read") body)

let write_wide t name ~scale value =
  let r = block_reg t name in
  match r.r_write with
  | None -> fail "register %s is not writable" r.r_name
  | Some lp ->
      let body () =
        with_depth t (fun () ->
            run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
            note_var_write t name [ r.r_name ];
            t.bus.Bus.write ~width:(scale * point_width t lp)
              ~addr:(point_addr t lp) ~value;
            run_action ~what:(Trace.Post, r.r_name) t r.r_post;
            run_action ~what:(Trace.Set, r.r_name) t r.r_set)
      in
      (match t.profile with
      | None -> body ()
      | Some p -> Profile.span p (t.label ^ "/var:" ^ name ^ ":write") body)

let read_block_wide t name ~scale ~count =
  let r = block_reg t name in
  match r.r_read with
  | None -> fail "register %s is not readable" r.r_name
  | Some lp ->
      let body () =
        with_depth t (fun () ->
            run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
            note_var_read t name;
            let into = Array.make count 0 in
            t.bus.Bus.read_block ~width:(scale * point_width t lp)
              ~addr:(point_addr t lp) ~into;
            run_action ~what:(Trace.Post, r.r_name) t r.r_post;
            into)
      in
      (match t.profile with
      | None -> body ()
      | Some p ->
          Profile.span p (t.label ^ "/var:" ^ name ^ ":block_read") body)

let write_block_wide t name ~scale data =
  let r = block_reg t name in
  match r.r_write with
  | None -> fail "register %s is not writable" r.r_name
  | Some lp ->
      let body () =
        with_depth t (fun () ->
            run_action ~what:(Trace.Pre, r.r_name) t r.r_pre;
            note_var_write t name [ r.r_name ];
            t.bus.Bus.write_block ~width:(scale * point_width t lp)
              ~addr:(point_addr t lp) ~from:data;
            run_action ~what:(Trace.Post, r.r_name) t r.r_post;
            run_action ~what:(Trace.Set, r.r_name) t r.r_set)
      in
      (match t.profile with
      | None -> body ()
      | Some p ->
          Profile.span p (t.label ^ "/var:" ^ name ^ ":block_write") body)

(* {1 Indexed (parameterized) register access} *)

let instantiate_template t ~template ~args : Ir.reg =
  match Ir.find_template t.device template with
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
      {
        Ir.r_name =
          Printf.sprintf "%s(%s)" template
            (String.concat "," (List.map string_of_int args));
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

let read_indexed t ~template ~args =
  let r = instantiate_template t ~template ~args in
  match t.profile with
  | None -> with_depth t (fun () -> read_reg_io t r)
  | Some p ->
      Profile.span p
        (t.label ^ "/template:" ^ template ^ ":read")
        (fun () -> with_depth t (fun () -> read_reg_io t r))

let write_indexed t ~template ~args raw =
  let r = instantiate_template t ~template ~args in
  match t.profile with
  | None -> with_depth t (fun () -> write_reg_io t r raw)
  | Some p ->
      Profile.span p
        (t.label ^ "/template:" ^ template ^ ":write")
        (fun () -> with_depth t (fun () -> write_reg_io t r raw))
end

(* {1 Engine dispatch}

   The compiled engine is the default — the paper's stubs are compiled,
   and so is our hot path. [~interpret:true] keeps the interpreter
   available as the differential oracle and as a debugging aid. *)

type t = Compiled of Plan.t | Interpreted of Interp.t

let create ?(debug = false) ?label ?ctx ?(interpret = false) device ~bus
    ~bases =
  if interpret then
    Interpreted (Interp.create ~debug ?label ?ctx device ~bus ~bases)
  else
    let label = match label with Some l -> l | None -> device.Ir.d_name in
    Compiled (Plan.compile ~debug ~label ?ctx device ~bus ~bases)

let device = function
  | Compiled p -> Plan.device p
  | Interpreted i -> Interp.device i

let ctx = function Compiled p -> Plan.ctx p | Interpreted i -> i.ctx

let get t name =
  match t with
  | Compiled p -> Plan.get p name
  | Interpreted i -> Interp.get i name

let set t name value =
  match t with
  | Compiled p -> Plan.set p name value
  | Interpreted i -> Interp.set i name value

let get_struct t name =
  match t with
  | Compiled p -> Plan.get_struct p name
  | Interpreted i -> Interp.get_struct i name

let set_struct t name fields =
  match t with
  | Compiled p -> Plan.set_struct p name fields
  | Interpreted i -> Interp.set_struct i name fields

let read_wide t name ~scale =
  match t with
  | Compiled p -> Plan.read_wide p name ~scale
  | Interpreted i -> Interp.read_wide i name ~scale

let write_wide t name ~scale value =
  match t with
  | Compiled p -> Plan.write_wide p name ~scale value
  | Interpreted i -> Interp.write_wide i name ~scale value

let read_block_wide t name ~scale ~count =
  match t with
  | Compiled p -> Plan.read_block_wide p name ~scale ~count
  | Interpreted i -> Interp.read_block_wide i name ~scale ~count

let write_block_wide t name ~scale data =
  match t with
  | Compiled p -> Plan.write_block_wide p name ~scale data
  | Interpreted i -> Interp.write_block_wide i name ~scale data

let read_block t name ~count = read_block_wide t name ~scale:1 ~count
let write_block t name data = write_block_wide t name ~scale:1 data

let read_indexed t ~template ~args =
  match t with
  | Compiled p -> Plan.read_indexed p ~template ~args
  | Interpreted i -> Interp.read_indexed i ~template ~args

let write_indexed t ~template ~args raw =
  match t with
  | Compiled p -> Plan.write_indexed p ~template ~args raw
  | Interpreted i -> Interp.write_indexed i ~template ~args raw

let invalidate_cache = function
  | Compiled p -> Plan.invalidate_cache p
  | Interpreted i -> Interp.invalidate_cache i

let cached_raw t reg =
  match t with
  | Compiled p -> Plan.cached_raw p reg
  | Interpreted i -> Interp.cached_raw i reg

(* {1 Pre-resolved handles} *)

type handle = H_plan of Plan.handle | H_interp of string

let handle t name =
  match t with
  | Compiled p -> H_plan (Plan.handle p name)
  | Interpreted i ->
      ignore (Interp.check_public i name);
      H_interp name

let get_h t h =
  match (t, h) with
  | Compiled p, H_plan h -> Plan.get_h p h
  | Interpreted i, H_interp name ->
      Interp.with_depth i (fun () -> Interp.get_internal i name)
  | Compiled _, H_interp _ | Interpreted _, H_plan _ ->
      fail "handle was created by a different engine"

let set_h t h value =
  match (t, h) with
  | Compiled p, H_plan h -> Plan.set_h p h value
  | Interpreted i, H_interp name ->
      Interp.with_depth i (fun () -> Interp.set_internal i name value)
  | Compiled _, H_interp _ | Interpreted _, H_plan _ ->
      fail "handle was created by a different engine"
