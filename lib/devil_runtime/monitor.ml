(* The online protocol monitor: a trace-stream checker that asserts,
   as events arrive, the interface disciplines the compiler is supposed
   to uphold — serialization orderings, trigger-neutral rewrites of
   shared registers, and volatile-cache refreshes. It re-derives each
   rule from the IR independently of both engines, so it serves as a
   third oracle in the differential tests. *)

module Ir = Devil_ir.Ir
module Dtype = Devil_ir.Dtype
module Bitops = Devil_bits.Bitops

type violation = {
  vl_seq : int;
  vl_dev : string;
  vl_rule : string;  (* "serialization" | "trigger-neutral" | "volatile-refresh" *)
  vl_detail : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "#%d %s: %s violation: %s" v.vl_seq v.vl_dev v.vl_rule
    v.vl_detail

(* The bits variable [v] occupies in register [reg] when carrying the
   var-wide raw value [raw], plus the mask of those positions — the
   scatter of Instance restricted to one register. *)
let bits_in_reg (v : Ir.var) ~reg ~raw =
  let total = Ir.var_width v in
  let consumed = ref 0 in
  let img = ref 0 and mask = ref 0 in
  List.iter
    (fun (c : Ir.chunk) ->
      List.iter
        (fun (hi, lo) ->
          let w = hi - lo + 1 in
          let field =
            Bitops.extract ~hi:(total - !consumed - 1)
              ~lo:(total - !consumed - w) raw
          in
          if String.equal c.c_reg reg then begin
            img := Bitops.insert ~hi ~lo ~field !img;
            mask := Bitops.insert ~hi ~lo ~field:(Bitops.width_mask w) !mask
          end;
          consumed := !consumed + w)
        c.c_ranges)
    v.v_chunks;
  (!img, !mask)

(* What a write-trigger sibling demands of a register rewrite. *)
type trig = {
  tg_var : string;
  tg_mask : int;  (* the sibling's bit positions in this register *)
  tg_check : [ `Neutral of int | `Only of int ];
      (* [`Neutral bits]: the written image must carry exactly [bits]
         at [tg_mask]. [`Only bits]: it must NOT carry [bits] (the
         firing pattern) at [tg_mask]. *)
}

type dev_state = {
  ds_dev : string;
  (* reg name -> write-trigger demands on that register *)
  ds_triggers : (string, trig list) Hashtbl.t;
  (* reg name -> volatile siblings forcing a refresh before rewrite *)
  ds_refresh : (string, string list) Hashtbl.t;
  (* reg name -> writers announced by the innermost Var/Struct_write *)
  ds_pending : (string, string list) Hashtbl.t;
  (* regs read since their last write *)
  ds_fresh : (string, unit) Hashtbl.t;
  (* remaining queues of active serialization expectations *)
  mutable ds_serials : (string * string list) list;  (* owner, remaining *)
}

type t = {
  devs : (string, dev_state) Hashtbl.t;
  mutable violations_rev : violation list;
  mutable count : int;
}

let encode_bits (v : Ir.var) value ~reg =
  match Dtype.encode v.v_type value with
  | Ok raw -> Some (bits_in_reg v ~reg ~raw)
  | Error _ -> None

let compile_device dev (d : Ir.device) =
  let triggers = Hashtbl.create 8 in
  let refresh = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.reg) ->
      let siblings = Ir.vars_of_reg d r.r_name in
      (* Trigger-neutral demands: a write-trigger sibling with a
         declared exempt value constrains every rewrite of the
         register that is not on the sibling's own behalf. *)
      let trigs =
        List.filter_map
          (fun (v : Ir.var) ->
            match v.v_behaviour.b_trigger with
            | Some { tr_write = true; tr_exempt = Some exempt; _ } -> (
                match exempt with
                | Ir.Neutral value -> (
                    match encode_bits v value ~reg:r.r_name with
                    | Some (bits, mask) when mask <> 0 ->
                        Some
                          { tg_var = v.v_name; tg_mask = mask;
                            tg_check = `Neutral bits }
                    | _ -> None)
                | Ir.Only value -> (
                    match encode_bits v value ~reg:r.r_name with
                    | Some (bits, mask) when mask <> 0 ->
                        Some
                          { tg_var = v.v_name; tg_mask = mask;
                            tg_check = `Only bits }
                    | _ -> None))
            | _ -> None)
          siblings
      in
      if trigs <> [] then Hashtbl.replace triggers r.r_name trigs;
      (* Volatile-refresh demand: mirrors Instance.compose_base — a
         rewrite must re-read first when the register is readable, a
         sibling is volatile (and not itself being rewritten), and no
         sibling has a read trigger making the re-read unsafe. *)
      let read_trigger =
        List.exists
          (fun (v : Ir.var) ->
            match v.v_behaviour.b_trigger with
            | Some { tr_read = true; _ } -> true
            | _ -> false)
          siblings
      in
      if Ir.reg_readable r && not read_trigger then begin
        let vols =
          List.filter_map
            (fun (v : Ir.var) ->
              if v.v_behaviour.b_volatile then Some v.v_name else None)
            siblings
        in
        if vols <> [] then Hashtbl.replace refresh r.r_name vols
      end)
    d.d_regs;
  {
    ds_dev = dev;
    ds_triggers = triggers;
    ds_refresh = refresh;
    ds_pending = Hashtbl.create 16;
    ds_fresh = Hashtbl.create 16;
    ds_serials = [];
  }

let create ~devices =
  let devs = Hashtbl.create 8 in
  List.iter
    (fun (dev, device) -> Hashtbl.replace devs dev (compile_device dev device))
    devices;
  { devs; violations_rev = []; count = 0 }

let violations t = List.rev t.violations_rev
let violation_count t = t.count

let clear t =
  t.violations_rev <- [];
  t.count <- 0;
  Hashtbl.iter
    (fun _ ds ->
      Hashtbl.reset ds.ds_pending;
      Hashtbl.reset ds.ds_fresh;
      ds.ds_serials <- [])
    t.devs

let report t ~seq ~dev ~rule fmt =
  Format.kasprintf
    (fun detail ->
      t.violations_rev <-
        { vl_seq = seq; vl_dev = dev; vl_rule = rule; vl_detail = detail }
        :: t.violations_rev;
      t.count <- t.count + 1)
    fmt

let writers_of ds reg =
  Option.value (Hashtbl.find_opt ds.ds_pending reg) ~default:[]

let on_reg_write t ds ~seq ~reg ~raw =
  let writers = writers_of ds reg in
  (* Rule: serialization order. A write to a register still owed by an
     active serialization expectation must be the next one owed. *)
  ds.ds_serials <-
    List.filter_map
      (fun (owner, remaining) ->
        match remaining with
        | [] -> None
        | next :: rest when String.equal next reg ->
            if rest = [] then None else Some (owner, rest)
        | _ ->
            if List.mem reg remaining then begin
              report t ~seq ~dev:ds.ds_dev ~rule:"serialization"
                "write of %s arrived before %s in the serialized order of %s"
                reg
                (String.concat " -> " remaining)
                owner;
              None (* retire the broken expectation; no cascades *)
            end
            else Some (owner, remaining))
      ds.ds_serials;
  (* Rule: trigger-neutral writes. Rewriting a register that carries a
     write-trigger sibling must place the sibling's neutral bits unless
     the write is on the sibling's own behalf. *)
  (match Hashtbl.find_opt ds.ds_triggers reg with
  | None -> ()
  | Some trigs ->
      List.iter
        (fun tg ->
          if not (List.mem tg.tg_var writers) then
            match tg.tg_check with
            | `Neutral bits ->
                if raw land tg.tg_mask <> bits then
                  report t ~seq ~dev:ds.ds_dev ~rule:"trigger-neutral"
                    "write of %s carries %#x at the bits of trigger \
                     variable %s (mask %#x); its neutral value is %#x"
                    reg (raw land tg.tg_mask) tg.tg_var tg.tg_mask bits
            | `Only bits ->
                if raw land tg.tg_mask = bits then
                  report t ~seq ~dev:ds.ds_dev ~rule:"trigger-neutral"
                    "write of %s carries the firing value %#x of trigger \
                     variable %s (mask %#x)"
                    reg bits tg.tg_var tg.tg_mask)
        trigs);
  (* Rule: volatile refresh. Rewriting a register with a (not itself
     rewritten) volatile sibling must be preceded by a re-read, or the
     stale cached bits of the sibling get written back. *)
  (match Hashtbl.find_opt ds.ds_refresh reg with
  | None -> ()
  | Some vols ->
      let needs = List.exists (fun v -> not (List.mem v writers)) vols in
      if needs && not (Hashtbl.mem ds.ds_fresh reg) then
        report t ~seq ~dev:ds.ds_dev ~rule:"volatile-refresh"
          "write of %s without a fresh read: volatile sibling%s %s may \
           have changed behind the cache"
          reg
          (if List.length vols = 1 then "" else "s")
          (String.concat ", " vols));
  Hashtbl.remove ds.ds_fresh reg

let feed t (e : Trace.event) =
  let state dev = Hashtbl.find_opt t.devs dev in
  match e.kind with
  | Reg_read { dev; reg; _ } -> (
      match state dev with
      | Some ds -> Hashtbl.replace ds.ds_fresh reg ()
      | None -> ())
  | Reg_write { dev; reg; raw } -> (
      match state dev with
      | Some ds -> on_reg_write t ds ~seq:e.seq ~reg ~raw
      | None -> ())
  | Var_write { dev; regs; var } -> (
      match state dev with
      | Some ds ->
          List.iter (fun reg -> Hashtbl.replace ds.ds_pending reg [ var ]) regs
      | None -> ())
  | Struct_write { dev; fields; regs; _ } -> (
      match state dev with
      | Some ds ->
          List.iter (fun reg -> Hashtbl.replace ds.ds_pending reg fields) regs
      | None -> ())
  | Serialized { dev; owner; order } -> (
      match state dev with
      | Some ds ->
          if order <> [] then ds.ds_serials <- ds.ds_serials @ [ (owner, order) ]
      | None -> ())
  | Cache_invalidated { dev } -> (
      match state dev with
      | Some ds ->
          Hashtbl.reset ds.ds_fresh;
          Hashtbl.reset ds.ds_pending
      | None -> ())
  | _ -> ()

let feed_all t events = List.iter (feed t) events
let attach t trace = Trace.subscribe trace (feed t)
