type keyword =
  | Kdevice
  | Kregister
  | Kvariable
  | Kstructure
  | Kprivate
  | Kread
  | Kwrite
  | Kmask
  | Kpre
  | Kpost
  | Kset
  | Kvolatile
  | Ktrigger
  | Kexcept
  | Kfor
  | Kblock
  | Kserialized
  | Kas
  | Kif
  | Kelse
  | Kint
  | Ksigned
  | Kbool
  | Kport
  | Kbit
  | Ktrue
  | Kfalse

type t =
  | IDENT of string
  | UIDENT of string
  | INT of int
  | BITLIT of string
  | KW of keyword
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | AT
  | COLON
  | SEMI
  | COMMA
  | HASH
  | EQ
  | EQEQ
  | NEQ
  | MAPSTO
  | MAPSFROM
  | MAPSBOTH
  | DOTDOT
  | STAR
  | EOF

type loc_token = { token : t; loc : Loc.t; text : string }

let keywords =
  [
    ("device", Kdevice);
    ("register", Kregister);
    ("variable", Kvariable);
    ("structure", Kstructure);
    ("private", Kprivate);
    ("read", Kread);
    ("write", Kwrite);
    ("mask", Kmask);
    ("pre", Kpre);
    ("post", Kpost);
    ("set", Kset);
    ("volatile", Kvolatile);
    ("trigger", Ktrigger);
    ("except", Kexcept);
    ("for", Kfor);
    ("block", Kblock);
    ("serialized", Kserialized);
    ("as", Kas);
    ("if", Kif);
    ("else", Kelse);
    ("int", Kint);
    ("signed", Ksigned);
    ("bool", Kbool);
    ("port", Kport);
    ("bit", Kbit);
    ("true", Ktrue);
    ("false", Kfalse);
  ]

(* The lexer looks up every lowercase word, so index [keywords] once. *)
let keyword_table =
  let table = Hashtbl.create 32 in
  List.iter (fun (s, k) -> Hashtbl.replace table s k) keywords;
  table

let keyword_of_string s = Hashtbl.find_opt keyword_table s

let string_of_keyword k =
  (* The keyword table is a bijection, so the reverse lookup always finds. *)
  fst (List.find (fun (_, k') -> k' = k) keywords)

let to_string = function
  | IDENT s | UIDENT s -> s
  | INT n -> string_of_int n
  | BITLIT s -> "'" ^ s ^ "'"
  | KW k -> string_of_keyword k
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | AT -> "@"
  | COLON -> ":"
  | SEMI -> ";"
  | COMMA -> ","
  | HASH -> "#"
  | EQ -> "="
  | EQEQ -> "=="
  | NEQ -> "!="
  | MAPSTO -> "=>"
  | MAPSFROM -> "<="
  | MAPSBOTH -> "<=>"
  | DOTDOT -> ".."
  | STAR -> "*"
  | EOF -> "<eof>"

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal (a : t) (b : t) = a = b
