type bit_class = Covered | Forced of bool | Irrelevant

type t = { bits : bit_class array }
(* [bits.(i)] classifies bit [i]; index 0 is the least significant bit,
   i.e. the rightmost character of the mask text. *)

let width t = Array.length t.bits

let all_covered w =
  if w <= 0 then invalid_arg "Mask.all_covered"
  else { bits = Array.make w Covered }

let class_of_char = function
  | '.' -> Ok Covered
  | '0' -> Ok (Forced false)
  | '1' -> Ok (Forced true)
  | '*' | '-' -> Ok Irrelevant
  | c -> Error c

let of_string ~width text =
  let n = String.length text in
  if n <> width then
    Error
      (Printf.sprintf "mask '%s' has %d bits but the register has %d" text n
         width)
  else
    let bits = Array.make n Irrelevant in
    let rec fill i =
      if i >= n then Ok { bits }
      else
        match class_of_char text.[i] with
        | Ok c ->
            (* Character [i] (from the left) describes bit [n - 1 - i]. *)
            bits.(n - 1 - i) <- c;
            fill (i + 1)
        | Error c ->
            Error (Printf.sprintf "invalid mask character %C in '%s'" c text)
    in
    fill 0

let of_string_exn ~width text =
  match of_string ~width text with
  | Ok m -> m
  | Error msg -> invalid_arg ("Mask.of_string_exn: " ^ msg)

let bit t i =
  if i < 0 || i >= width t then invalid_arg "Mask.bit" else t.bits.(i)

let covered_bits t =
  let acc = ref [] in
  for i = width t - 1 downto 0 do
    match t.bits.(i) with
    | Covered -> acc := i :: !acc
    | Forced _ | Irrelevant -> ()
  done;
  !acc

let forced_value t =
  let v = ref 0 in
  Array.iteri
    (fun i c -> match c with Forced true -> v := !v lor (1 lsl i)
                           | Forced false | Covered | Irrelevant -> ())
    t.bits;
  !v

let forced_positions t =
  let v = ref 0 in
  Array.iteri
    (fun i c -> match c with Forced _ -> v := !v lor (1 lsl i)
                           | Covered | Irrelevant -> ())
    t.bits;
  !v

let covered_value t =
  let v = ref 0 in
  Array.iteri
    (fun i c -> match c with Covered -> v := !v lor (1 lsl i)
                           | Forced _ | Irrelevant -> ())
    t.bits;
  !v

let writable_frame t ~value = value land covered_value t lor forced_value t

let char_of_class = function
  | Covered -> '.'
  | Forced false -> '0'
  | Forced true -> '1'
  | Irrelevant -> '*'

let to_string t =
  String.init (width t) (fun i -> char_of_class t.bits.(width t - 1 - i))

let pp fmt t = Format.fprintf fmt "'%s'" (to_string t)
let equal a b = a.bits = b.bits
