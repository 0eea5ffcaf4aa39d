type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let current_pos st : Loc.pos =
  { line = st.line; col = st.pos - st.bol + 1; offset = st.pos }

let loc_from st start_pos =
  Loc.make ~file:st.file ~start_pos ~end_pos:(current_pos st)

let fail_at st start_pos fmt = Diagnostics.fail (loc_from st start_pos) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

(* [advance], [skip_trivia] and [lex_while] run once per source byte, so
   they read the string directly: [peek]'s [Some c] would allocate a word
   pair for every character. *)
let advance st =
  let pos = st.pos in
  if pos < String.length st.src && String.unsafe_get st.src pos = '\n' then (
    st.line <- st.line + 1;
    st.bol <- pos + 1);
  st.pos <- pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident_char c = is_lower c || is_upper c || is_digit c

(* The character at offset [i], or NUL past the end (NUL is not trivia). *)
let char_at st i =
  if i < String.length st.src then String.unsafe_get st.src i else '\000'

let rec skip_trivia st =
  match char_at st st.pos with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_trivia st
  | '/' when char_at st (st.pos + 1) = '/' ->
      while st.pos < String.length st.src && char_at st st.pos <> '\n' do
        advance st
      done;
      skip_trivia st
  | '/' when char_at st (st.pos + 1) = '*' ->
      let start = current_pos st in
      advance st;
      advance st;
      while not (char_at st st.pos = '*' && char_at st (st.pos + 1) = '/') do
        if st.pos >= String.length st.src then
          fail_at st start "unterminated block comment";
        advance st
      done;
      advance st;
      advance st;
      skip_trivia st
  | _ -> ()

let lex_while st pred =
  let start = st.pos in
  while
    st.pos < String.length st.src && pred (String.unsafe_get st.src st.pos)
  do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let lex_number st start_pos =
  let to_int text =
    match int_of_string_opt text with
    | Some n -> n
    | None -> fail_at st start_pos "integer literal out of range"
  in
  match (peek st, peek2 st) with
  | Some '0', Some ('x' | 'X') ->
      advance st;
      advance st;
      let digits = lex_while st is_hex_digit in
      if digits = "" then fail_at st start_pos "missing hexadecimal digits"
      else to_int ("0x" ^ digits)
  | _ ->
      let digits = lex_while st is_digit in
      (* Reject C-style trailing identifier chars (e.g. "12ab"). *)
      (match peek st with
      | Some c when is_ident_char c ->
          fail_at st start_pos "malformed integer literal"
      | Some _ | None -> ());
      to_int digits

let is_bit_char = function '0' | '1' | '.' | '*' | '-' -> true | _ -> false

let lex_bitlit st start_pos =
  advance st;
  (* opening quote *)
  let body = lex_while st is_bit_char in
  match peek st with
  | Some '\'' ->
      advance st;
      if body = "" then fail_at st start_pos "empty bit literal" else body
  | Some c -> fail_at st start_pos "invalid character %C in bit literal" c
  | None -> fail_at st start_pos "unterminated bit literal"

let next_token st : Token.loc_token =
  skip_trivia st;
  let start_pos = current_pos st in
  let mk token =
    let loc = loc_from st start_pos in
    let text =
      String.sub st.src start_pos.offset (st.pos - start_pos.offset)
    in
    { Token.token; loc; text }
  in
  let simple token =
    advance st;
    mk token
  in
  match peek st with
  | None -> { Token.token = EOF; loc = loc_from st start_pos; text = "" }
  | Some c when is_digit c -> mk (INT (lex_number st start_pos))
  | Some c when is_lower c ->
      let word = lex_while st is_ident_char in
      mk
        (match Token.keyword_of_string word with
        | Some kw -> KW kw
        | None -> IDENT word)
  | Some c when is_upper c ->
      let word = lex_while st is_ident_char in
      mk (UIDENT word)
  | Some '\'' -> mk (BITLIT (lex_bitlit st start_pos))
  | Some '{' -> simple LBRACE
  | Some '}' -> simple RBRACE
  | Some '(' -> simple LPAREN
  | Some ')' -> simple RPAREN
  | Some '[' -> simple LBRACKET
  | Some ']' -> simple RBRACKET
  | Some '@' -> simple AT
  | Some ':' -> simple COLON
  | Some ';' -> simple SEMI
  | Some ',' -> simple COMMA
  | Some '#' -> simple HASH
  | Some '*' -> simple STAR
  | Some '=' -> (
      advance st;
      match peek st with
      | Some '=' ->
          advance st;
          mk EQEQ
      | Some '>' ->
          advance st;
          mk MAPSTO
      | Some _ | None -> mk EQ)
  | Some '!' -> (
      advance st;
      match peek st with
      | Some '=' ->
          advance st;
          mk NEQ
      | Some _ | None -> fail_at st start_pos "expected '=' after '!'")
  | Some '<' -> (
      advance st;
      match peek st with
      | Some '=' -> (
          advance st;
          match peek st with
          | Some '>' ->
              advance st;
              mk MAPSBOTH
          | Some _ | None -> mk MAPSFROM)
      | Some _ | None -> fail_at st start_pos "expected '=' after '<'")
  | Some '.' -> (
      advance st;
      match peek st with
      | Some '.' ->
          advance st;
          mk DOTDOT
      | Some _ | None -> fail_at st start_pos "expected '..'")
  | Some c -> fail_at st start_pos "unexpected character %C" c

let tokenize ?(file = "<string>") src =
  let st = { src; file; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let tok = next_token st in
    match tok.Token.token with
    | EOF -> List.rev (tok :: acc)
    | _ -> go (tok :: acc)
  in
  go []

let tokenize_result ?file src =
  match tokenize ?file src with
  | tokens -> Ok tokens
  | exception Diagnostics.Error item -> Error item
