(* Tests for the Devil parser: every construct of the paper, error
   handling, and print/re-parse round trips over the bundled
   specification library. *)

module Ast = Devil_syntax.Ast
module Parser = Devil_syntax.Parser
module Pretty = Devil_syntax.Pretty
module Specs = Devil_specs.Specs
module Lexer = Devil_syntax.Lexer
module Check = Devil_check.Check

let parse src = Parser.parse_device ("device d (base : bit[8] port @ {0..7}) {" ^ src ^ "}")

let first_decl src =
  match (parse src).Ast.dev_decls with
  | d :: _ -> d
  | [] -> Alcotest.fail "no declaration parsed"

let expect_syntax_error src =
  match Parser.parse_device_result src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("parsed: " ^ src)

let test_device_header () =
  let d =
    Parser.parse_device
      "device two_ports (a : bit[8] port @ {0..3}, b : bit[16] port @ {0}, \
       mode : bool) { register r = a @ 0 : bit[8]; }"
  in
  Alcotest.(check string) "name" "two_ports" d.Ast.dev_name.name;
  Alcotest.(check int) "params" 3 (List.length d.Ast.dev_params);
  match (List.nth d.Ast.dev_params 2).Ast.dp_kind with
  | Ast.DP_const { ty = Ast.T_bool; _ } -> ()
  | _ -> Alcotest.fail "third parameter should be a bool constant"

let test_register_forms () =
  (match first_decl "register r = base @ 1 : bit[8];" with
  | Ast.D_register { reg_body = Ast.RB_ports [ (Ast.Acc_read_write, pe) ]; reg_size = Some 8; _ } ->
      Alcotest.(check (option int)) "offset" (Some 1) pe.Ast.port_offset
  | _ -> Alcotest.fail "simple register");
  (match first_decl "register r = write base @ 3, mask '1001000.' : bit[8];" with
  | Ast.D_register { reg_body = Ast.RB_ports [ (Ast.Acc_write, _) ]; reg_attrs = [ Ast.RA_mask { mask_text; _ } ]; _ } ->
      Alcotest.(check string) "mask" "1001000." mask_text
  | _ -> Alcotest.fail "write register with mask");
  (match first_decl "register r = read base @ 0 write base @ 1 : bit[8];" with
  | Ast.D_register { reg_body = Ast.RB_ports [ (Ast.Acc_read, _); (Ast.Acc_write, _) ]; _ } -> ()
  | _ -> Alcotest.fail "two-port register");
  (match first_decl "register r = base @ 0, pre {i = 0}, post {i = 1}, set {i = 2} : bit[8];" with
  | Ast.D_register { reg_attrs = [ Ast.RA_pre _; Ast.RA_post _; Ast.RA_set _ ]; _ } -> ()
  | _ -> Alcotest.fail "action attributes");
  (match first_decl "register bare = base : bit[8];" with
  | Ast.D_register { reg_body = Ast.RB_ports [ (_, pe) ]; _ } ->
      Alcotest.(check (option int)) "no offset" None pe.Ast.port_offset
  | _ -> Alcotest.fail "bare port")

let test_parameterized_registers () =
  (match first_decl "register I(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];" with
  | Ast.D_register { reg_params = [ p ]; _ } ->
      Alcotest.(check string) "param" "i" p.Ast.param_name.name;
      Alcotest.(check int) "range" 32 (Ast.int_set_cardinal p.Ast.param_set)
  | _ -> Alcotest.fail "template");
  match first_decl "register I23 = I(23), mask '......0.';" with
  | Ast.D_register { reg_body = Ast.RB_instance { template; args; _ }; reg_size = None; _ } ->
      Alcotest.(check string) "template" "I" template.Ast.name;
      Alcotest.(check (list int)) "args" [ 23 ] args
  | _ -> Alcotest.fail "instance"

let test_variable_forms () =
  (match first_decl "variable v = r, volatile, write trigger : int(8);" with
  | Ast.D_variable { var_attrs = [ Ast.VA_volatile; Ast.VA_trigger { t_dir = Ast.Trig_write; t_exempt = None } ]; _ } -> ()
  | _ -> Alcotest.fail "volatile write trigger");
  (match first_decl "variable v = r[1..0], write trigger except NEUTRAL : bool;" with
  | Ast.D_variable { var_attrs = [ Ast.VA_trigger { t_exempt = Some (Ast.Exempt_except e); _ } ]; _ } ->
      Alcotest.(check string) "neutral" "NEUTRAL" e.Ast.name
  | _ -> Alcotest.fail "except");
  (match first_decl "variable v = r[3], set {xm = v}, write trigger for true : bool;" with
  | Ast.D_variable { var_attrs = [ Ast.VA_set _; Ast.VA_trigger { t_exempt = Some (Ast.Exempt_for (Ast.AV_bool true)); _ } ]; _ } -> ()
  | _ -> Alcotest.fail "for true");
  (match first_decl "variable dx = h[3..0] # l[3..0], volatile : signed int(8);" with
  | Ast.D_variable { var_chunks = [ c1; c2 ]; var_type = Some { ty = Ast.T_int { signed = true; bits = 8 }; _ }; _ } ->
      Alcotest.(check string) "msb chunk" "h" c1.Ast.chunk_reg.name;
      Alcotest.(check string) "lsb chunk" "l" c2.Ast.chunk_reg.name
  | _ -> Alcotest.fail "concatenation");
  (match first_decl "variable xa = r[2,7..4] : int(5);" with
  | Ast.D_variable { var_chunks = [ { chunk_ranges = [ Ast.Single 2; Ast.Range (7, 4) ]; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "multi-fragment range");
  (match first_decl "private variable xm : bool;" with
  | Ast.D_variable { var_private = true; var_chunks = []; _ } -> ()
  | _ -> Alcotest.fail "memory cell");
  match first_decl "variable x = h # l : int(16) serialized as {l; h};" with
  | Ast.D_variable { var_serial = Some [ a; b ]; _ } ->
      Alcotest.(check string) "first" "l" a.Ast.si_reg.name;
      Alcotest.(check string) "second" "h" b.Ast.si_reg.name
  | _ -> Alcotest.fail "serialized variable"

let test_types () =
  (match first_decl "variable v = r : { A => '1', B <= '0', C <=> '1' };" with
  | Ast.D_variable { var_type = Some { ty = Ast.T_enum [ a; b; c ]; _ }; _ } ->
      Alcotest.(check bool) "A write" true (a.Ast.dir = Ast.Dir_write);
      Alcotest.(check bool) "B read" true (b.Ast.dir = Ast.Dir_read);
      Alcotest.(check bool) "C both" true (c.Ast.dir = Ast.Dir_both)
  | _ -> Alcotest.fail "enum type");
  match first_decl "variable v = r : int{0..17,25};" with
  | Ast.D_variable { var_type = Some { ty = Ast.T_int_set set; _ }; _ } ->
      Alcotest.(check bool) "has 25" true (Ast.int_set_mem 25 set);
      Alcotest.(check bool) "no 18" false (Ast.int_set_mem 18 set);
      Alcotest.(check int) "cardinal" 19 (Ast.int_set_cardinal set)
  | _ -> Alcotest.fail "int set type"

let test_structures () =
  match
    first_decl
      "structure init = { variable a = r[0] : bool; variable b = r[1] : bool; } \
       serialized as { r; if (a == true) s; if (b != false) t; };"
  with
  | Ast.D_structure { struct_fields = [ _; _ ]; struct_serial = Some [ i1; i2; i3 ]; _ } ->
      Alcotest.(check bool) "plain item" true (i1.Ast.si_cond = None);
      (match i2.Ast.si_cond with
      | Some { sc_negated = false; sc_value = Ast.AV_bool true; _ } -> ()
      | _ -> Alcotest.fail "== condition");
      (match i3.Ast.si_cond with
      | Some { sc_negated = true; _ } -> ()
      | _ -> Alcotest.fail "!= condition")
  | _ -> Alcotest.fail "structure"

let test_conditionals () =
  match
    first_decl
      "if (mode == true) { register a = base @ 0 : bit[8]; } else { register \
       b = base @ 0 : bit[8]; }"
  with
  | Ast.D_conditional { cd_then = [ _ ]; cd_else = [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "conditional declaration"

let test_struct_assignment_action () =
  match first_decl "register X = base @ 1, pre {XS = {XA => 3; XRAE => true}} : bit[8];" with
  | Ast.D_register { reg_attrs = [ Ast.RA_pre { assignments = [ Ast.Assign_struct (t, fields) ]; _ } ]; _ } ->
      Alcotest.(check string) "target" "XS" t.Ast.name;
      Alcotest.(check int) "fields" 2 (List.length fields)
  | _ -> Alcotest.fail "structure assignment in pre-action"

let test_errors () =
  expect_syntax_error "device";
  expect_syntax_error "device d { }";
  expect_syntax_error "device d () { register r = ; }";
  expect_syntax_error "device d () { register r = base @ : bit[8]; }";
  expect_syntax_error "device d () { variable v = r[3..] : bool; }";
  expect_syntax_error "device d () { register r = base @ 0 : bit[8]; } trailing";
  expect_syntax_error "device d () { structure s = { register r = base @ 0 : bit[8]; }; }";
  expect_syntax_error "device d () { private register r = base @ 0 : bit[8]; }"

(* Round trips over the whole specification library: pretty-printing
   then re-parsing reaches a fixed point. *)
let test_roundtrip_specs () =
  List.iter
    (fun (name, src) ->
      let d1 = Parser.parse_device ~file:name src in
      let p1 = Pretty.device_to_string d1 in
      let d2 = Parser.parse_device ~file:(name ^ "-rt") p1 in
      let p2 = Pretty.device_to_string d2 in
      Alcotest.(check string) (name ^ " roundtrip") p1 p2)
    Specs.all

(* The front end's cost, pinned by counts rather than by time. With a
   256k-word minor heap emptied first, compiling any bundled spec fits in
   it, so a minor collection during [Check.compile] can only be one the
   front end forced (as [Array.of_list] does on a young list of more than
   256 tokens). The lexer's allocation is capped per source byte. The
   minor heap is set here so that OCAMLRUNPARAM cannot change either
   figure. *)
let test_front_end_allocation () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144 };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      let compile (name, src) =
        let config =
          if name = "pic8259" then [ ("is_master", Devil_ir.Value.Bool true) ]
          else []
        in
        match Check.compile ~config ~file:name src with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s does not compile" name
      in
      List.iter compile Specs.all;
      List.iter
        (fun ((name, _) as spec) ->
          Gc.minor ();
          let before = (Gc.quick_stat ()).Gc.minor_collections in
          compile spec;
          let after = (Gc.quick_stat ()).Gc.minor_collections in
          Alcotest.(check int) (name ^ ": minor collections") 0 (after - before))
        Specs.all;
      (* [Gc.minor_words], not [quick_stat]: the latter's [minor_words]
         only moves at collections. *)
      let bytes =
        List.fold_left (fun n (_, src) -> n + String.length src) 0 Specs.all
      in
      let before = Gc.minor_words () in
      List.iter (fun (name, src) -> ignore (Lexer.tokenize ~file:name src)) Specs.all;
      let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
      if per_byte > 9.0 then
        Alcotest.failf "the lexer allocates %.2f words per source byte (cap 9.0)"
          per_byte)

let () =
  Alcotest.run "parser"
    [
      ( "constructs",
        [
          Alcotest.test_case "device header" `Quick test_device_header;
          Alcotest.test_case "register forms" `Quick test_register_forms;
          Alcotest.test_case "parameterized registers" `Quick
            test_parameterized_registers;
          Alcotest.test_case "variable forms" `Quick test_variable_forms;
          Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "structures" `Quick test_structures;
          Alcotest.test_case "conditional declarations" `Quick
            test_conditionals;
          Alcotest.test_case "struct assignment actions" `Quick
            test_struct_assignment_action;
        ] );
      ( "errors",
        [ Alcotest.test_case "syntax errors" `Quick test_errors ] );
      ( "roundtrip",
        [ Alcotest.test_case "specification library" `Quick test_roundtrip_specs ] );
      ( "cost",
        [
          Alcotest.test_case "compiling forces no collection" `Quick
            test_front_end_allocation;
        ] );
    ]
