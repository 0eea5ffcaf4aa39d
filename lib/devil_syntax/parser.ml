open Ast

(* The state is the list of tokens not yet consumed; it is never empty,
   because [advance] keeps the last token (the [EOF]). The parser looks
   at most two tokens ahead, so it walks the lexer's list as it is. An
   [Array.of_list] copy would cost more than the parse: an array over 256
   words made from a young list first forces a minor collection, which
   promotes the whole list. *)
type state = { mutable tokens : Token.loc_token list }

let current st =
  match st.tokens with
  | t :: _ -> t
  | [] -> assert false

let current_loc st = (current st).Token.loc
let peek_token st = (current st).Token.token

let peek_token_at st n =
  match List.nth_opt st.tokens n with
  | Some t -> t.Token.token
  | None -> Token.EOF

let advance st =
  match st.tokens with
  | _ :: (_ :: _ as rest) -> st.tokens <- rest
  | [ _ ] | [] -> ()

let fail st fmt = Diagnostics.fail (current_loc st) fmt

let expect st token =
  if Token.equal (peek_token st) token then (
    let loc = current_loc st in
    advance st;
    loc)
  else
    fail st "expected %s but found %s" (Token.to_string token)
      (Token.to_string (peek_token st))

let expect_kw st kw = ignore (expect st (Token.KW kw))

let accept st token =
  if Token.equal (peek_token st) token then (
    advance st;
    true)
  else false

let accept_kw st kw = accept st (Token.KW kw)

let parse_int st =
  match peek_token st with
  | Token.INT n ->
      advance st;
      n
  | t -> fail st "expected an integer but found %s" (Token.to_string t)

(* Identifiers: Devil names may start with either case (enum symbols and
   some device variables are conventionally uppercase), so both token
   kinds are accepted wherever a name is expected. *)
let parse_name st =
  match peek_token st with
  | Token.IDENT s | Token.UIDENT s ->
      let loc = current_loc st in
      advance st;
      { name = s; loc }
  | t -> fail st "expected an identifier but found %s" (Token.to_string t)

let parse_uname st =
  match peek_token st with
  | Token.UIDENT s ->
      let loc = current_loc st in
      advance st;
      { name = s; loc }
  | t ->
      fail st "expected an uppercase symbolic name but found %s"
        (Token.to_string t)

(* int_set_items := item ("," item)*  with item := INT (".." INT)? *)
let parse_int_set_items st =
  let parse_item () =
    let a = parse_int st in
    if accept st Token.DOTDOT then Range (a, parse_int st) else Single a
  in
  let rec go acc =
    let item = parse_item () in
    if accept st Token.COMMA then go (item :: acc) else List.rev (item :: acc)
  in
  go []

let parse_braced_int_set st =
  let start = expect st Token.LBRACE in
  let items = parse_int_set_items st in
  let stop = expect st Token.RBRACE in
  { items; set_loc = Loc.merge start stop }

(* "bit" "[" INT "]" *)
let parse_bit_width st =
  expect_kw st Token.Kbit;
  ignore (expect st Token.LBRACKET);
  let width = parse_int st in
  ignore (expect st Token.RBRACKET);
  width

let parse_action_value st =
  match peek_token st with
  | Token.INT n ->
      advance st;
      AV_int n
  | Token.STAR ->
      advance st;
      AV_any
  | Token.KW Token.Ktrue ->
      advance st;
      AV_bool true
  | Token.KW Token.Kfalse ->
      advance st;
      AV_bool false
  | Token.IDENT _ | Token.UIDENT _ -> AV_sym (parse_name st)
  | t -> fail st "expected a value but found %s" (Token.to_string t)

(* assignment := name "=" (value | "{" name "=>" value (";" ...)* "}") *)
let parse_assignment st =
  let target = parse_name st in
  ignore (expect st Token.EQ);
  if Token.equal (peek_token st) Token.LBRACE then (
    ignore (expect st Token.LBRACE);
    let parse_field () =
      let field = parse_name st in
      ignore (expect st Token.MAPSTO);
      let value = parse_action_value st in
      (field, value)
    in
    let rec go acc =
      let f = parse_field () in
      if accept st Token.SEMI && not (Token.equal (peek_token st) Token.RBRACE)
      then go (f :: acc)
      else List.rev (f :: acc)
    in
    let fields = go [] in
    ignore (expect st Token.RBRACE);
    Assign_struct (target, fields))
  else Assign (target, parse_action_value st)

(* action := "{" assignment (";" assignment)* ";"? "}" *)
let parse_action_block st =
  let start = expect st Token.LBRACE in
  let rec go acc =
    if Token.equal (peek_token st) Token.RBRACE then List.rev acc
    else
      let a = parse_assignment st in
      if accept st Token.SEMI then go (a :: acc) else List.rev (a :: acc)
  in
  let assignments = go [] in
  let stop = expect st Token.RBRACE in
  { assignments; action_loc = Loc.merge start stop }

(* port_expr := name ("@" INT)? *)
let parse_port_expr st =
  let port_name = parse_name st in
  let port_offset, stop_loc =
    if accept st Token.AT then
      let loc = current_loc st in
      (Some (parse_int st), loc)
    else (None, port_name.loc)
  in
  { port_name; port_offset; port_loc = Loc.merge port_name.loc stop_loc }

let parse_enum_dir st =
  match peek_token st with
  | Token.MAPSTO ->
      advance st;
      Dir_write
  | Token.MAPSFROM ->
      advance st;
      Dir_read
  | Token.MAPSBOTH ->
      advance st;
      Dir_both
  | t -> fail st "expected '=>', '<=' or '<=>' but found %s" (Token.to_string t)

let parse_enum_cases st =
  let parse_case () =
    let case_name = parse_uname st in
    let dir = parse_enum_dir st in
    match peek_token st with
    | Token.BITLIT pattern ->
        let pattern_loc = current_loc st in
        advance st;
        { case_name; dir; pattern; pattern_loc }
    | t -> fail st "expected a bit literal but found %s" (Token.to_string t)
  in
  let rec go acc =
    let case = parse_case () in
    if accept st Token.COMMA then go (case :: acc) else List.rev (case :: acc)
  in
  go []

(* dtype := "bool"
          | "signed"? "int" ("(" INT ")" | "{" int_set "}")
          | "{" enum_cases "}" *)
let parse_dtype st =
  let start = current_loc st in
  let ty =
    match peek_token st with
    | Token.KW Token.Kbool ->
        advance st;
        T_bool
    | Token.KW Token.Ksigned ->
        advance st;
        expect_kw st Token.Kint;
        ignore (expect st Token.LPAREN);
        let bits = parse_int st in
        ignore (expect st Token.RPAREN);
        T_int { signed = true; bits }
    | Token.KW Token.Kint -> (
        advance st;
        match peek_token st with
        | Token.LPAREN ->
            advance st;
            let bits = parse_int st in
            ignore (expect st Token.RPAREN);
            T_int { signed = false; bits }
        | Token.LBRACE -> T_int_set (parse_braced_int_set st)
        | t ->
            fail st "expected '(' or '{' after 'int' but found %s"
              (Token.to_string t))
    | Token.LBRACE ->
        advance st;
        let cases = parse_enum_cases st in
        ignore (expect st Token.RBRACE);
        T_enum cases
    | t -> fail st "expected a type but found %s" (Token.to_string t)
  in
  { ty; ty_loc = Loc.merge start (current_loc st) }

(* serial_item := ("if" "(" name ("=="|"!=") value ")")? name *)
let parse_serial_items st =
  let parse_item () =
    if accept_kw st Token.Kif then (
      ignore (expect st Token.LPAREN);
      let sc_var = parse_name st in
      let sc_negated =
        match peek_token st with
        | Token.EQEQ ->
            advance st;
            false
        | Token.NEQ ->
            advance st;
            true
        | t -> fail st "expected '==' or '!=' but found %s" (Token.to_string t)
      in
      let sc_value = parse_action_value st in
      ignore (expect st Token.RPAREN);
      let si_reg = parse_name st in
      { si_cond = Some { sc_var; sc_negated; sc_value }; si_reg })
    else { si_cond = None; si_reg = parse_name st }
  in
  let rec go acc =
    if Token.equal (peek_token st) Token.RBRACE then List.rev acc
    else
      let item = parse_item () in
      if accept st Token.SEMI then go (item :: acc) else List.rev (item :: acc)
  in
  ignore (expect st Token.LBRACE);
  let items = go [] in
  ignore (expect st Token.RBRACE);
  items

let parse_serial_clause st =
  if accept_kw st Token.Kserialized then (
    expect_kw st Token.Kas;
    Some (parse_serial_items st))
  else None

(* {1 Registers} *)

let parse_reg_attr st =
  match peek_token st with
  | Token.KW Token.Kmask -> (
      advance st;
      match peek_token st with
      | Token.BITLIT mask_text ->
          let mask_loc = current_loc st in
          advance st;
          Some (RA_mask { mask_text; mask_loc })
      | t -> fail st "expected a bit literal after 'mask' but found %s"
               (Token.to_string t))
  | Token.KW Token.Kpre ->
      advance st;
      Some (RA_pre (parse_action_block st))
  | Token.KW Token.Kpost ->
      advance st;
      Some (RA_post (parse_action_block st))
  | Token.KW Token.Kset ->
      advance st;
      Some (RA_set (parse_action_block st))
  | _ -> None

(* After '=': either an instantiation [I(23)] or port bindings.  The
   first binding may be bare (read-write); subsequent bindings must be
   introduced by 'read' or 'write'. *)
let parse_reg_body_and_attrs st =
  let is_instance =
    (match peek_token st with Token.IDENT _ | Token.UIDENT _ -> true | _ -> false)
    && Token.equal (peek_token_at st 1) Token.LPAREN
  in
  if is_instance then (
    let template = parse_name st in
    let args_start = expect st Token.LPAREN in
    let rec go acc =
      let n = parse_int st in
      if accept st Token.COMMA then go (n :: acc) else List.rev (n :: acc)
    in
    let args = go [] in
    let args_stop = expect st Token.RPAREN in
    let body =
      RB_instance { template; args; args_loc = Loc.merge args_start args_stop }
    in
    let rec attrs acc =
      if accept st Token.COMMA then
        match parse_reg_attr st with
        | Some a -> attrs (a :: acc)
        | None -> fail st "expected a register attribute after ','"
      else List.rev acc
    in
    (body, attrs []))
  else
    let parse_binding ~require_access =
      match peek_token st with
      | Token.KW Token.Kread ->
          advance st;
          Some (Acc_read, parse_port_expr st)
      | Token.KW Token.Kwrite ->
          advance st;
          Some (Acc_write, parse_port_expr st)
      | (Token.IDENT _ | Token.UIDENT _) when not require_access ->
          Some (Acc_read_write, parse_port_expr st)
      | _ -> None
    in
    let first =
      match parse_binding ~require_access:false with
      | Some b -> b
      | None -> fail st "expected a port binding"
    in
    (* Additional bindings may follow directly (read p1 write p2) or
       after a comma; a comma may instead introduce attributes. *)
    let rec go bindings attrs =
      match parse_binding ~require_access:true with
      | Some b -> go (b :: bindings) attrs
      | None ->
          if accept st Token.COMMA then
            match parse_binding ~require_access:true with
            | Some b -> go (b :: bindings) attrs
            | None -> (
                match parse_reg_attr st with
                | Some a -> go bindings (a :: attrs)
                | None ->
                    fail st "expected a port binding or register attribute")
          else (List.rev bindings, List.rev attrs)
    in
    let bindings, attrs = go [ first ] [] in
    (RB_ports bindings, attrs)

let parse_reg_decl st =
  let start = expect st (Token.KW Token.Kregister) in
  let reg_name = parse_name st in
  let reg_params =
    if accept st Token.LPAREN then (
      let parse_param () =
        let param_name = parse_name st in
        ignore (expect st Token.COLON);
        expect_kw st Token.Kint;
        let param_set = parse_braced_int_set st in
        { param_name; param_set }
      in
      let rec go acc =
        let p = parse_param () in
        if accept st Token.COMMA then go (p :: acc) else List.rev (p :: acc)
      in
      let params = go [] in
      ignore (expect st Token.RPAREN);
      params)
    else []
  in
  ignore (expect st Token.EQ);
  let reg_body, reg_attrs = parse_reg_body_and_attrs st in
  let reg_size =
    if accept st Token.COLON then Some (parse_bit_width st) else None
  in
  let stop = expect st Token.SEMI in
  { reg_name; reg_params; reg_body; reg_attrs; reg_size;
    reg_loc = Loc.merge start stop }

(* {1 Variables} *)

(* chunk := name ("[" range ("," range)* "]")? *)
let parse_chunk st =
  let chunk_reg = parse_name st in
  let chunk_ranges, stop =
    if accept st Token.LBRACKET then (
      let parse_range () =
        let hi = parse_int st in
        if accept st Token.DOTDOT then Range (hi, parse_int st) else Single hi
      in
      let rec go acc =
        let r = parse_range () in
        if accept st Token.COMMA then go (r :: acc) else List.rev (r :: acc)
      in
      let ranges = go [] in
      let stop = expect st Token.RBRACKET in
      (ranges, stop))
    else ([], chunk_reg.loc)
  in
  { chunk_reg; chunk_ranges; chunk_loc = Loc.merge chunk_reg.loc stop }

let parse_chunks st =
  let rec go acc =
    let c = parse_chunk st in
    if accept st Token.HASH then go (c :: acc) else List.rev (c :: acc)
  in
  go []

let rec parse_var_attr st =
  match peek_token st with
  | Token.KW Token.Kvolatile ->
      advance st;
      Some VA_volatile
  | Token.KW Token.Kblock ->
      advance st;
      Some VA_block
  | Token.KW Token.Kset ->
      advance st;
      Some (VA_set (parse_action_block st))
  | Token.KW Token.Kpre ->
      advance st;
      Some (VA_pre (parse_action_block st))
  | Token.KW Token.Kpost ->
      advance st;
      Some (VA_post (parse_action_block st))
  | Token.KW Token.Kread when Token.equal (peek_token_at st 1)
                                (Token.KW Token.Ktrigger) ->
      advance st;
      advance st;
      Some (VA_trigger { t_dir = Trig_read; t_exempt = parse_exempt st })
  | Token.KW Token.Kwrite when Token.equal (peek_token_at st 1)
                                 (Token.KW Token.Ktrigger) ->
      advance st;
      advance st;
      Some (VA_trigger { t_dir = Trig_write; t_exempt = parse_exempt st })
  | Token.KW Token.Ktrigger ->
      advance st;
      Some (VA_trigger { t_dir = Trig_both; t_exempt = parse_exempt st })
  | _ -> None

and parse_exempt st =
  if accept_kw st Token.Kexcept then Some (Exempt_except (parse_name st))
  else if accept_kw st Token.Kfor then
    Some (Exempt_for (parse_action_value st))
  else None

let parse_var_decl ~private_ st =
  let start = expect st (Token.KW Token.Kvariable) in
  let var_name = parse_name st in
  let var_chunks, var_attrs =
    if accept st Token.EQ then (
      let chunks = parse_chunks st in
      let rec attrs acc =
        if accept st Token.COMMA then
          match parse_var_attr st with
          | Some a -> attrs (a :: acc)
          | None -> fail st "expected a variable attribute after ','"
        else List.rev acc
      in
      (chunks, attrs []))
    else ([], [])
  in
  let var_type =
    if accept st Token.COLON then Some (parse_dtype st) else None
  in
  let var_serial = parse_serial_clause st in
  let stop = expect st Token.SEMI in
  { var_name; var_private = private_; var_chunks; var_attrs; var_type;
    var_serial; var_loc = Loc.merge start stop }

(* {1 Structures and declarations} *)

let rec parse_struct_decl ~private_ st =
  let start = expect st (Token.KW Token.Kstructure) in
  let struct_name = parse_name st in
  ignore (expect st Token.EQ);
  ignore (expect st Token.LBRACE);
  let rec fields acc =
    match peek_token st with
    | Token.RBRACE -> List.rev acc
    | Token.KW Token.Kvariable ->
        fields (parse_var_decl ~private_:false st :: acc)
    | Token.KW Token.Kprivate ->
        advance st;
        fields (parse_var_decl ~private_:true st :: acc)
    | t ->
        fail st "expected a variable declaration in structure but found %s"
          (Token.to_string t)
  in
  let struct_fields = fields [] in
  ignore (expect st Token.RBRACE);
  let struct_serial = parse_serial_clause st in
  let stop = expect st Token.SEMI in
  { struct_name; struct_private = private_; struct_fields; struct_serial;
    struct_loc = Loc.merge start stop }

and parse_decl st =
  match peek_token st with
  | Token.KW Token.Kregister -> D_register (parse_reg_decl st)
  | Token.KW Token.Kvariable -> D_variable (parse_var_decl ~private_:false st)
  | Token.KW Token.Kstructure ->
      D_structure (parse_struct_decl ~private_:false st)
  | Token.KW Token.Kprivate -> (
      advance st;
      match peek_token st with
      | Token.KW Token.Kvariable ->
          D_variable (parse_var_decl ~private_:true st)
      | Token.KW Token.Kstructure ->
          D_structure (parse_struct_decl ~private_:true st)
      | t ->
          fail st "expected 'variable' or 'structure' after 'private', found %s"
            (Token.to_string t))
  | Token.KW Token.Kif -> D_conditional (parse_cond_decl st)
  | t -> fail st "expected a declaration but found %s" (Token.to_string t)

and parse_cond_decl st =
  let start = expect st (Token.KW Token.Kif) in
  ignore (expect st Token.LPAREN);
  let sc_var = parse_name st in
  let sc_negated =
    match peek_token st with
    | Token.EQEQ ->
        advance st;
        false
    | Token.NEQ ->
        advance st;
        true
    | t -> fail st "expected '==' or '!=' but found %s" (Token.to_string t)
  in
  let sc_value = parse_action_value st in
  ignore (expect st Token.RPAREN);
  let parse_block () =
    ignore (expect st Token.LBRACE);
    let rec go acc =
      if Token.equal (peek_token st) Token.RBRACE then List.rev acc
      else go (parse_decl st :: acc)
    in
    let decls = go [] in
    ignore (expect st Token.RBRACE);
    decls
  in
  let cd_then = parse_block () in
  let cd_else = if accept_kw st Token.Kelse then parse_block () else [] in
  { cd_cond = { sc_var; sc_negated; sc_value }; cd_then; cd_else;
    cd_loc = Loc.merge start (current_loc st) }

(* {1 Devices} *)

let parse_device_param st =
  let dp_name = parse_name st in
  ignore (expect st Token.COLON);
  let dp_kind =
    match peek_token st with
    | Token.KW Token.Kbit ->
        let width = parse_bit_width st in
        expect_kw st Token.Kport;
        let offsets =
          if accept st Token.AT then parse_braced_int_set st
          else
            (* A bare port parameter addresses a single location. *)
            { items = [ Single 0 ]; set_loc = dp_name.loc }
        in
        DP_port { width; offsets }
    | _ -> DP_const (parse_dtype st)
  in
  { dp_name; dp_kind; dp_loc = Loc.merge dp_name.loc (current_loc st) }

let parse_device_toplevel st =
  let start = expect st (Token.KW Token.Kdevice) in
  let dev_name = parse_name st in
  ignore (expect st Token.LPAREN);
  let dev_params =
    if Token.equal (peek_token st) Token.RPAREN then []
    else
      let rec go acc =
        let p = parse_device_param st in
        if accept st Token.COMMA then go (p :: acc) else List.rev (p :: acc)
      in
      go []
  in
  ignore (expect st Token.RPAREN);
  ignore (expect st Token.LBRACE);
  let rec decls acc =
    if Token.equal (peek_token st) Token.RBRACE then List.rev acc
    else decls (parse_decl st :: acc)
  in
  let dev_decls = decls [] in
  let stop = expect st Token.RBRACE in
  (* A trailing semicolon after the device body is tolerated. *)
  ignore (accept st Token.SEMI);
  (match peek_token st with
  | Token.EOF -> ()
  | t -> fail st "trailing input after device declaration: %s"
           (Token.to_string t));
  { dev_name; dev_params; dev_decls; dev_loc = Loc.merge start stop }

let parse_tokens tokens =
  match tokens with
  | [] -> invalid_arg "Parser.parse_tokens: empty token list"
  | _ ->
      let st = { tokens } in
      parse_device_toplevel st

let parse_device ?file src = parse_tokens (Lexer.tokenize ?file src)

let parse_device_result ?file src =
  match parse_device ?file src with
  | device -> Ok device
  | exception Diagnostics.Error item -> Error item
