module Bitops = Devil_bits.Bitops

type piece = { reg : string; lo : int; width : int; shift : int }

let pieces (v : Ir.var) =
  let _, acc =
    List.fold_left
      (fun acc (c : Ir.chunk) ->
        List.fold_left
          (fun (shift, acc) (hi, lo) ->
            let width = hi - lo + 1 in
            let shift = shift - width in
            (shift, { reg = c.c_reg; lo; width; shift } :: acc))
          acc c.c_ranges)
      (Ir.var_width v, []) v.v_chunks
  in
  List.rev acc

let field_mask p = Bitops.width_mask p.width lsl p.lo

let neutral_raw (v : Ir.var) =
  let encode value =
    match Dtype.encode v.v_type value with Ok raw -> Some raw | Error _ -> None
  in
  match v.v_behaviour.b_trigger with
  | Some { tr_write = true; tr_exempt = Some (Ir.Neutral value); _ } ->
      encode value
  | Some { tr_write = true; tr_exempt = Some (Ir.Only value); _ } -> (
      (* Any value other than the firing one is neutral. *)
      match encode value with
      | Some raw ->
          Some (if raw = 0 then 1 land Bitops.width_mask (Ir.var_width v) else 0)
      | None -> Some 0)
  | Some _ | None -> None

(* Each piece in [r] is inserted in turn, as the interpreter's
   sequential inserts do. *)
let neutral_fields device (r : Ir.reg) =
  List.filter_map
    (fun (v : Ir.var) ->
      Option.map
        (fun raw ->
          List.fold_left
            (fun (clear, set) p ->
              if not (String.equal p.reg r.r_name) then (clear, set)
              else
                let m = field_mask p in
                let field = (raw lsr p.shift) land Bitops.width_mask p.width in
                (clear lor m, set land lnot m lor (field lsl p.lo)))
            (0, 0) (pieces v))
        (neutral_raw v))
    (Ir.vars_of_reg device r.r_name)

let fresh (v : Ir.var) =
  v.v_behaviour.b_volatile
  ||
  match v.v_behaviour.b_trigger with
  | Some { tr_read = true; _ } -> true
  | Some _ | None -> false

let write_order device regs = function
  | None -> List.map (fun r -> (None, r)) regs
  | Some items ->
      List.filter_map
        (fun (i : Ir.serial_item) ->
          Option.map (fun r -> (i.si_cond, r)) (Ir.find_reg device i.si_reg))
        items

let struct_regs device (s : Ir.strct) =
  let add acc (r : Ir.reg) =
    if List.exists (fun (x : Ir.reg) -> String.equal x.r_name r.r_name) acc
    then acc
    else r :: acc
  in
  List.rev
    (List.fold_left
       (fun acc f ->
         match Ir.find_var device f with
         | Some v -> List.fold_left add acc (Ir.regs_of_var device v)
         | None -> acc)
       [] s.s_fields)

let block_reg device (v : Ir.var) =
  if not v.v_behaviour.b_block then
    Error (Printf.sprintf "variable %s has no block behaviour" v.v_name)
  else
    match v.v_chunks with
    | [ { c_reg; c_ranges = [ (hi, lo) ] } ] -> (
        match Ir.find_reg device c_reg with
        | None -> Error (Printf.sprintf "unknown register %s" c_reg)
        | Some r when lo <> 0 || hi <> r.r_size - 1 ->
            Error
              (Printf.sprintf "block variable %s must span its whole register"
                 v.v_name)
        | Some r -> Ok r)
    | _ ->
        Error
          (Printf.sprintf "block variable %s must map to a single register"
             v.v_name)
