(* Tests for AST -> IR elaboration (Devil_ir.Resolve). *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value
module Dtype = Devil_ir.Dtype
module Resolve = Devil_ir.Resolve
module Mask = Devil_bits.Mask

let wrap body = "device d (base : bit[8] port @ {0..7}) {" ^ body ^ "}"

let elab ?config body =
  match Resolve.elaborate_string ?config (wrap body) with
  | Ok d -> d
  | Error diags ->
      Alcotest.fail
        (Format.asprintf "elaboration failed:@.%a" Devil_syntax.Diagnostics.pp
           diags)

let elab_err ?config body =
  match Resolve.elaborate_string ?config (wrap body) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("elaborated: " ^ body)

let the = function Some x -> x | None -> Alcotest.fail "missing entity"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_ports_and_registers () =
  let d = elab "register r = read base @ 0 write base @ 1, mask '10..00..' : bit[8];
                variable v = r[5..4] # r[1..0] : int(4);" in
  let p = the (Ir.find_port d "base") in
  Alcotest.(check int) "width" 8 p.p_width;
  Alcotest.(check (list int)) "offsets" [ 0; 1; 2; 3; 4; 5; 6; 7 ] p.p_offsets;
  let r = the (Ir.find_reg d "r") in
  Alcotest.(check int) "read offset" 0 (the r.r_read).lp_offset;
  Alcotest.(check int) "write offset" 1 (the r.r_write).lp_offset;
  Alcotest.(check int) "forced" 0x80 (Mask.forced_value r.r_mask)

let test_variable_resolution () =
  let d = elab "register h = base @ 0 : bit[8];
                register l = base @ 1 : bit[8];
                variable x = h[3..0] # l[7..6], volatile : int(6);" in
  let v = the (Ir.find_var d "x") in
  Alcotest.(check int) "width" 6 (Ir.var_width v);
  Alcotest.(check bool) "volatile" true v.v_behaviour.b_volatile;
  match v.v_chunks with
  | [ { c_reg = "h"; c_ranges = [ (3, 0) ] }; { c_reg = "l"; c_ranges = [ (7, 6) ] } ] -> ()
  | _ -> Alcotest.fail "chunks"

let test_whole_register_chunk () =
  let d = elab "register r = base @ 0 : bit[8]; variable v = r : int(8);" in
  match (the (Ir.find_var d "v")).v_chunks with
  | [ { c_ranges = [ (7, 0) ]; _ } ] -> ()
  | _ -> Alcotest.fail "whole-register chunk"

let test_template_instantiation () =
  let d =
    elab
      "register idx = write base @ 0 : bit[8];
       private variable ia = idx : int(8);
       register T(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];
       register T5 = T(5), mask '......0.';
       variable v = T5[7..2] : int(6);
       variable w = T5[0] : bool;"
  in
  let r = the (Ir.find_reg d "T5") in
  Alcotest.(check bool) "provenance" true (r.r_from_template = Some ("T", [ 5 ]));
  (match r.r_pre with
  | [ Ir.Set_var { target = "ia"; value = Ir.O_int 5 } ] -> ()
  | _ -> Alcotest.fail "substituted pre-action");
  match Mask.bit r.r_mask 1 with
  | Mask.Forced false -> ()
  | _ -> Alcotest.fail "mask override"

let test_trigger_merge () =
  let d =
    elab
      "register r = base @ 0 : bit[8];
       variable v = r, read trigger, write trigger except OFF :
         { OFF <=> '00000000', ON => '00000001', RUNNING <= '*******1' };"
  in
  match (the (Ir.find_var d "v")).v_behaviour.b_trigger with
  | Some { tr_read = true; tr_write = true; tr_exempt = Some (Ir.Neutral (Value.Enum "OFF")) } -> ()
  | _ -> Alcotest.fail "merged trigger"

let test_conditionals () =
  let body =
    "register r = base @ 0 : bit[8];
     if (wide == true) { variable v = r : int(8); }
     else { variable v = r[3..0] : int(4); variable w = r[7..4] : int(4); }"
  in
  let full = "device d (base : bit[8] port @ {0..7}, wide : bool) {" ^ body ^ "}" in
  (match Resolve.elaborate_string ~config:[ ("wide", Value.Bool true) ] full with
  | Ok d -> Alcotest.(check int) "then branch" 1 (List.length d.d_vars)
  | Error _ -> Alcotest.fail "config true");
  (match Resolve.elaborate_string ~config:[ ("wide", Value.Bool false) ] full with
  | Ok d -> Alcotest.(check int) "else branch" 2 (List.length d.d_vars)
  | Error _ -> Alcotest.fail "config false");
  match Resolve.elaborate_string full with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing config accepted"

(* A configuration value of the wrong type is refused with a diagnostic
   naming the parameter, not read as "every condition false". *)
let test_ill_typed_config () =
  let full =
    "device d (base : bit[8] port @ {0..7}, wide : bool) {\
     register r = base @ 0 : bit[8];\
     if (wide == true) { variable v = r : int(8); }\
     else { variable v = r[3..0] : int(4); }}"
  in
  List.iter
    (fun v ->
      match Resolve.elaborate_string ~config:[ ("wide", v) ] full with
      | Ok _ ->
          Alcotest.failf "ill-typed config %s accepted" (Value.to_string v)
      | Error diags ->
          let text = Format.asprintf "%a" Devil_syntax.Diagnostics.pp diags in
          Alcotest.(check bool)
            ("diagnostic names the parameter: " ^ text)
            true
            (contains text "parameter wide"))
    [ Value.Enum "maybe"; Value.Int 7 ]

let test_structure_fields () =
  let d =
    elab
      "register r = base @ 0 : bit[8];
       structure s = { variable a = r[3..0], volatile : int(4);
                       variable b = r[7..4], volatile : int(4); };"
  in
  let s = the (Ir.find_struct d "s") in
  Alcotest.(check (list string)) "fields" [ "a"; "b" ] s.s_fields;
  Alcotest.(check (option string))
    "owner" (Some "s")
    (the (Ir.find_var d "a")).v_struct

let test_self_referencing_set () =
  (* set {xm = v} on v itself, as in the CS4236B XRAE variable. *)
  let d =
    elab
      "private variable xm : bool;
       register r = base @ 0 : bit[8];
       variable v = r[0], set {xm = v}, write trigger for true : bool;
       variable rest = r[7..1] : int(7);"
  in
  match (the (Ir.find_var d "v")).v_set with
  | [ Ir.Set_var { target = "xm"; value = Ir.O_var "v" } ] -> ()
  | _ -> Alcotest.fail "self-referencing set action"

let test_errors () =
  elab_err "register r = nosuch @ 0 : bit[8];";
  elab_err "register r = base @ 9 : bit[8];";
  elab_err "register r = base @ 0 : bit[8]; register r = base @ 1 : bit[8];";
  elab_err "register r = base @ 0 : bit[8]; variable v = r : int(8); variable v = r : int(8);";
  elab_err "variable v = nosuch : int(8);";
  elab_err "register r = base @ 0 : bit[8]; variable v = r[9..8] : int(2);";
  elab_err "register r = base @ 0 : bit[8]; variable v = r[0..3] : int(4);";
  elab_err "register r = base @ 0 : bit[8]; variable v = r;";
  elab_err "register r = base @ 0, mask '101' : bit[8]; variable v = r : int(8);";
  elab_err "register T(i : int{0..3}) = base @ 1 : bit[8]; register T9 = T(9);";
  elab_err "register T(i : int{0..3}) = base @ 1 : bit[8]; register T0 = T(0, 1);";
  elab_err "register r = base @ 0, pre {ghost = 1} : bit[8]; variable v = r : int(8);";
  elab_err "register r = base @ 0 : bit[8]; variable v = r : int(40);"

let () =
  Alcotest.run "resolve"
    [
      ( "elaboration",
        [
          Alcotest.test_case "ports and registers" `Quick
            test_ports_and_registers;
          Alcotest.test_case "variables" `Quick test_variable_resolution;
          Alcotest.test_case "whole-register chunks" `Quick
            test_whole_register_chunk;
          Alcotest.test_case "template instantiation" `Quick
            test_template_instantiation;
          Alcotest.test_case "trigger merge" `Quick test_trigger_merge;
          Alcotest.test_case "conditional declarations" `Quick
            test_conditionals;
          Alcotest.test_case "structures" `Quick test_structure_fields;
          Alcotest.test_case "self-referencing set" `Quick
            test_self_referencing_set;
          Alcotest.test_case "ill-typed configuration value" `Quick
            test_ill_typed_config;
        ] );
      ("errors", [ Alcotest.test_case "rejections" `Quick test_errors ]);
    ]
