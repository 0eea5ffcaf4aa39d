module Bitpat = Devil_bits.Bitpat
module Bitops = Devil_bits.Bitops

type dir = Read | Write | Both

type enum_case = { case_name : string; dir : dir; pattern : Bitpat.t }

type t =
  | Bool
  | Int of { signed : bool; bits : int }
  | Int_set of { values : int list; bits : int }
  | Enum of enum_case list

let width = function
  | Bool -> 1
  | Int { bits; _ } -> bits
  | Int_set { bits; _ } -> bits
  | Enum [] -> 0
  | Enum (c :: _) -> Bitpat.width c.pattern

let find_case t name =
  match t with
  | Enum cases -> List.find_opt (fun c -> String.equal c.case_name name) cases
  | Bool | Int _ | Int_set _ -> None

let readable_case = function Read | Both -> true | Write -> false
let writable_case = function Write | Both -> true | Read -> false

let writable_raws = function
  | Enum cases ->
      List.filter_map
        (fun c -> if writable_case c.dir then Bitpat.value c.pattern else None)
        cases
  | Bool | Int _ | Int_set _ -> []

let encode t (v : Value.t) =
  match (t, v) with
  | Bool, Bool b -> Ok (if b then 1 else 0)
  | Int { signed = false; bits }, Int n ->
      if Bitops.fits ~width:bits n then Ok n
      else Error (Printf.sprintf "value %d does not fit in int(%d)" n bits)
  | Int { signed = true; bits }, Int n ->
      if n >= -(1 lsl (bits - 1)) && n < 1 lsl (bits - 1) then
        Ok (Bitops.to_unsigned ~width:bits n)
      else
        Error (Printf.sprintf "value %d does not fit in signed int(%d)" n bits)
  | Int_set { values; bits = _ }, Int n ->
      if List.mem n values then Ok n
      else Error (Printf.sprintf "value %d is not a member of the range type" n)
  | Enum cases, Enum name -> (
      match List.find_opt (fun c -> String.equal c.case_name name) cases with
      | None -> Error (Printf.sprintf "unknown enumeration symbol %s" name)
      | Some { dir; pattern; _ } ->
          if not (writable_case dir) then
            Error (Printf.sprintf "symbol %s is read-only" name)
          else (
            match Bitpat.value pattern with
            | Some v -> Ok v
            | None ->
                Error
                  (Printf.sprintf "symbol %s has a wildcard pattern %s"
                     name (Bitpat.to_string pattern))))
  | (Bool | Int _ | Int_set _ | Enum _), _ ->
      Error
        (Printf.sprintf "value %s has the wrong kind for this type"
           (Value.to_string v))

let decode t raw =
  match t with
  | Bool -> Ok (Value.Bool (raw land 1 = 1))
  | Int { signed = false; bits } -> Ok (Value.Int (raw land Bitops.width_mask bits))
  | Int { signed = true; bits } -> Ok (Value.Int (Bitops.sign_extend ~width:bits raw))
  | Int_set _ -> Ok (Value.Int raw)
  | Enum cases -> (
      let readable =
        List.filter (fun c -> readable_case c.dir) cases
      in
      match List.find_opt (fun c -> Bitpat.matches c.pattern raw) readable with
      | Some c -> Ok (Value.Enum c.case_name)
      | None ->
          Error
            (Printf.sprintf
               "raw value %d matches no readable enumeration case" raw))

let validate_write t v =
  match encode t v with Ok _ -> Ok () | Error e -> Error e

let validate_read_raw t raw =
  match t with
  | Bool | Int _ -> Ok ()
  | Int_set { values; _ } ->
      if List.mem raw values then Ok ()
      else
        Error
          (Printf.sprintf "device delivered %d, outside the declared range"
             raw)
  | Enum _ -> (
      match decode t raw with Ok _ -> Ok () | Error e -> Error e)

let pp_dir fmt = function
  | Read -> Format.pp_print_string fmt "<="
  | Write -> Format.pp_print_string fmt "=>"
  | Both -> Format.pp_print_string fmt "<=>"

let pp fmt = function
  | Bool -> Format.pp_print_string fmt "bool"
  | Int { signed; bits } ->
      Format.fprintf fmt "%sint(%d)" (if signed then "signed " else "") bits
  | Int_set { values; _ } ->
      Format.fprintf fmt "int{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
           Format.pp_print_int)
        values
  | Enum cases ->
      let pp_case fmt c =
        Format.fprintf fmt "%s %a %a" c.case_name pp_dir c.dir Bitpat.pp
          c.pattern
      in
      Format.fprintf fmt "{ %a }"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_case)
        cases
