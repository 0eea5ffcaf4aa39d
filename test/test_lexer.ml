(* Tests for the Devil lexer. *)

module Lexer = Devil_syntax.Lexer
module Token = Devil_syntax.Token
module Diagnostics = Devil_syntax.Diagnostics
module Loc = Devil_syntax.Loc
module Specs = Devil_specs.Specs

let toks src = List.map (fun t -> t.Token.token) (Lexer.tokenize src)

let token = Alcotest.testable Token.pp Token.equal

let check_tokens msg expected src =
  Alcotest.(check (list token)) msg (expected @ [ Token.EOF ]) (toks src)

let test_idents_keywords () =
  check_tokens "mix"
    [
      Token.KW Token.Kregister;
      Token.IDENT "sig_reg";
      Token.EQ;
      Token.IDENT "base";
      Token.AT;
      Token.INT 1;
      Token.COLON;
      Token.KW Token.Kbit;
      Token.LBRACKET;
      Token.INT 8;
      Token.RBRACKET;
      Token.SEMI;
    ]
    "register sig_reg = base @ 1 : bit[8];";
  check_tokens "uident" [ Token.UIDENT "CONFIGURATION" ] "CONFIGURATION";
  check_tokens "underscore ident" [ Token.IDENT "_x9" ] "_x9"

let test_numbers () =
  check_tokens "decimal" [ Token.INT 123 ] "123";
  check_tokens "hex" [ Token.INT 0x1f ] "0x1f";
  check_tokens "hex upper" [ Token.INT 0xAB ] "0XAB";
  check_tokens "zero" [ Token.INT 0 ] "0"

let test_bitlits () =
  check_tokens "mask" [ Token.BITLIT "1001000." ] "'1001000.'";
  check_tokens "wild" [ Token.BITLIT "****...." ] "'****....'";
  check_tokens "dash" [ Token.BITLIT "-01*" ] "'-01*'"

let test_operators () =
  check_tokens "arrows"
    [ Token.MAPSTO; Token.MAPSFROM; Token.MAPSBOTH ]
    "=> <= <=>";
  check_tokens "eqs" [ Token.EQ; Token.EQEQ; Token.NEQ ] "= == !=";
  check_tokens "misc"
    [ Token.DOTDOT; Token.STAR; Token.HASH; Token.AT; Token.COMMA ]
    ".. * # @ ,"

let test_comments () =
  check_tokens "line comment" [ Token.INT 1; Token.INT 2 ] "1 // comment\n2";
  check_tokens "block comment" [ Token.INT 1; Token.INT 2 ] "1 /* x\ny */ 2";
  check_tokens "empty" [] "  // only\n/* comments */ "

(* [span] is the error's location as "line:col-line:col". *)
let expect_error src ~span message =
  match Lexer.tokenize_result src with
  | Error { Diagnostics.message = got; loc; _ } ->
      Alcotest.(check string) (src ^ ": message") message got;
      Alcotest.(check string) (src ^ ": span") span
        (Printf.sprintf "%d:%d-%d:%d" loc.start_pos.line loc.start_pos.col
           loc.end_pos.line loc.end_pos.col)
  | Ok _ -> Alcotest.fail ("lexed: " ^ src)

let test_errors () =
  expect_error "'10Z0'" ~span:"1:1-1:4" "invalid character 'Z' in bit literal";
  expect_error "'unterminated" ~span:"1:1-1:2"
    "invalid character 'u' in bit literal";
  expect_error "''" ~span:"1:1-1:3" "empty bit literal";
  expect_error "/* unterminated" ~span:"1:1-1:16" "unterminated block comment";
  expect_error "12ab" ~span:"1:1-1:3" "malformed integer literal";
  expect_error "0x" ~span:"1:1-1:3" "missing hexadecimal digits";
  expect_error "!" ~span:"1:1-1:2" "expected '=' after '!'";
  expect_error "<" ~span:"1:1-1:2" "expected '=' after '<'";
  expect_error ". x" ~span:"1:1-1:2" "expected '..'";
  expect_error "$" ~span:"1:1-1:1" "unexpected character '$'"

let test_locations () =
  let ts = Lexer.tokenize ~file:"f.dil" "ab\n  cd" in
  match ts with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "line 1" 1 a.Token.loc.start_pos.line;
      Alcotest.(check int) "col 1" 1 a.Token.loc.start_pos.col;
      Alcotest.(check int) "line 2" 2 b.Token.loc.start_pos.line;
      Alcotest.(check int) "col 3" 3 b.Token.loc.start_pos.col;
      Alcotest.(check string) "text" "cd" b.Token.text
  | _ -> Alcotest.fail "unexpected token count"

let all_keywords =
  Token.
    [
      Kdevice; Kregister; Kvariable; Kstructure; Kprivate; Kread; Kwrite;
      Kmask; Kpre; Kpost; Kset; Kvolatile; Ktrigger; Kexcept; Kfor; Kblock;
      Kserialized; Kas; Kif; Kelse; Kint; Ksigned; Kbool; Kport; Kbit;
      Ktrue; Kfalse;
    ]

let test_keyword_table () =
  List.iter
    (fun k ->
      let s = Token.string_of_keyword k in
      Alcotest.(check bool) s true (Token.keyword_of_string s = Some k))
    all_keywords

(* Whether [s] is only whitespace, line comments and block comments,
   scanned without the lexer. *)
let is_trivia s =
  let n = String.length s in
  let rec go i =
    if i >= n then true
    else
      match s.[i] with
      | ' ' | '\t' | '\r' | '\n' -> go (i + 1)
      | '/' when i + 1 < n && s.[i + 1] = '/' -> (
          match String.index_from_opt s i '\n' with
          | Some j -> go (j + 1)
          | None -> true)
      | '/' when i + 1 < n && s.[i + 1] = '*' ->
          let rec close j =
            if j + 1 >= n then false
            else if s.[j] = '*' && s.[j + 1] = '/' then go (j + 2)
            else close (j + 1)
          in
          close (i + 2)
      | _ -> false
  in
  go 0

(* The 1-based line and column of [offset], counting newlines before it. *)
let line_col src offset =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if src.[i] = '\n' then (
      incr line;
      bol := i + 1)
  done;
  (!line, offset - !bol + 1)

(* A reference check of the lexer on every bundled source: each token is
   the source slice at its location, locations agree with a newline
   count, tokens advance strictly and only trivia lies between them, and
   no identifier is a keyword. *)
let test_library_tokens () =
  List.iter
    (fun (name, src) ->
      let check_pos (p : Loc.pos) =
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s: line and column at offset %d" name p.offset)
          (line_col src p.offset) (p.line, p.col)
      in
      let last =
        List.fold_left
          (fun (prev_start, prev_end) (t : Token.loc_token) ->
            let start = t.loc.start_pos.offset and stop = t.loc.end_pos.offset in
            if start <= prev_start then
              Alcotest.failf "%s: offset %d follows %d" name start prev_start;
            if not (is_trivia (String.sub src prev_end (start - prev_end))) then
              Alcotest.failf "%s: more than trivia between offsets %d and %d"
                name prev_end start;
            Alcotest.(check string)
              (Printf.sprintf "%s: text at offset %d" name start)
              (String.sub src start (stop - start))
              t.text;
            check_pos t.loc.start_pos;
            check_pos t.loc.end_pos;
            (match t.token with
            | Token.IDENT s
              when List.exists (fun k -> Token.string_of_keyword k = s) all_keywords
              ->
                Alcotest.failf "%s: keyword %S lexed as an identifier" name s
            | _ -> ());
            (start, stop))
          (-1, 0) (Lexer.tokenize ~file:name src)
      in
      Alcotest.(check (pair int int))
        (name ^ ": EOF at the end") (String.length src, String.length src) last)
    Specs.all

let prop_token_text_roundtrip =
  (* Lexing the canonical text of any token yields the token back. *)
  let token_gen =
    QCheck.Gen.oneofl
      [
        Token.IDENT "foo"; Token.UIDENT "BAR"; Token.INT 42;
        Token.BITLIT "10*."; Token.KW Token.Kregister; Token.KW Token.Kmask;
        Token.LBRACE; Token.RBRACE; Token.LPAREN; Token.RPAREN;
        Token.LBRACKET; Token.RBRACKET; Token.AT; Token.COLON; Token.SEMI;
        Token.COMMA; Token.HASH; Token.EQ; Token.EQEQ; Token.NEQ;
        Token.MAPSTO; Token.MAPSFROM; Token.MAPSBOTH; Token.DOTDOT;
        Token.STAR;
      ]
  in
  QCheck.Test.make ~name:"token text relexes to the same token" ~count:200
    (QCheck.make token_gen)
    (fun t ->
      match toks (Token.to_string t) with
      | [ t'; Token.EOF ] -> Token.equal t t'
      | _ -> false)

let prop_sequence_roundtrip =
  let token_list_gen =
    QCheck.Gen.(
      list_size (int_bound 20)
        (oneofl
           [
             Token.IDENT "reg"; Token.INT 7; Token.BITLIT "01*";
             Token.KW Token.Kvariable; Token.AT; Token.COLON; Token.SEMI;
             Token.MAPSTO; Token.DOTDOT; Token.EQEQ;
           ]))
  in
  QCheck.Test.make ~name:"space-joined tokens relex to the same stream"
    ~count:200 (QCheck.make token_list_gen)
    (fun ts ->
      let src = String.concat " " (List.map Token.to_string ts) in
      List.map (fun x -> x) (toks src) = ts @ [ Token.EOF ])

let () =
  Alcotest.run "lexer"
    [
      ( "unit",
        [
          Alcotest.test_case "identifiers and keywords" `Quick
            test_idents_keywords;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "bit literals" `Quick test_bitlits;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "keyword table" `Quick test_keyword_table;
          Alcotest.test_case "specification library" `Quick
            test_library_tokens;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_token_text_roundtrip; prop_sequence_roundtrip ] );
    ]
