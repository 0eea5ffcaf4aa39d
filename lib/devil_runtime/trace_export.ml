(* Persistence for traces and bus tapes: versioned JSONL, Chrome
   about://tracing JSON, and the minimal JSON reader/writer they share
   (no external dependency carries one). *)

let version = 1

(* {1 A minimal JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when not (Float.is_finite f) -> Buffer.add_string b "null"
  | Float f ->
      (* The shortest of %.15g/%.17g that reads back as [f], keeping a
         fraction or exponent so the value re-parses as a [Float]. *)
      let s = Printf.sprintf "%.15g" f in
      let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
      Buffer.add_string b s;
      if not (String.exists (fun c -> c = '.' || c = 'e') s) then
        Buffer.add_string b ".0"
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          render b x)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          render b v)
        fields;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 256 in
  render b j;
  Buffer.contents b

exception Parse_error of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c -> c
                 | None -> fail "bad \\u escape"
               in
               (* Only the codepoints our own escaper emits need to
                  round-trip; others are stored as '?'. *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else Buffer.add_char b '?';
               pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    digits ();
    if !pos = start then fail "expected a number";
    let fractional = ref false in
    if peek () = Some '.' then (fractional := true; advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> fail "number out of range"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "at %d: trailing input" !pos)
    else Ok v
  with Parse_error msg -> Error msg

(* {1 Typed accessors over parsed JSON} *)

let field name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error (Printf.sprintf "expected an object with field %S" name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let as_int name j =
  let* v = field name j in
  match v with
  | Int n -> Ok n
  | _ -> Error (Printf.sprintf "field %S is not an integer" name)

let as_string name j =
  let* v = field name j in
  match v with
  | String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let as_bool name j =
  let* v = field name j in
  match v with
  | Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S is not a boolean" name)

let as_string_list name j =
  let* v = field name j in
  match v with
  | List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | String s -> Ok (s :: acc)
          | _ -> Error (Printf.sprintf "field %S holds a non-string" name))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "field %S is not an array" name)

let as_int_list name j =
  let* v = field name j in
  match v with
  | List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Int n -> Ok (n :: acc)
          | _ -> Error (Printf.sprintf "field %S holds a non-integer" name))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "field %S is not an array" name)

(* {1 Trace events <-> JSON} *)

let kind_to_json (k : Trace.kind) =
  let tag t rest = Obj (("kind", String t) :: rest) in
  (* The request id is only written when present, so traces recorded
     before the scheduler existed (and events not on behalf of any
     queued request) serialize byte-identically to format version 1
     files from older builds. *)
  let with_rid rid fields = if rid > 0 then fields @ [ ("rid", Int rid) ] else fields in
  match k with
  | Bus_read { addr; width; value } ->
      tag "bus_read" [ ("addr", Int addr); ("width", Int width); ("value", Int value) ]
  | Bus_write { addr; width; value } ->
      tag "bus_write" [ ("addr", Int addr); ("width", Int width); ("value", Int value) ]
  | Bus_block_read { addr; width; count } ->
      tag "bus_block_read" [ ("addr", Int addr); ("width", Int width); ("count", Int count) ]
  | Bus_block_write { addr; width; count } ->
      tag "bus_block_write" [ ("addr", Int addr); ("width", Int width); ("count", Int count) ]
  | Reg_read { dev; reg; raw } ->
      tag "reg_read" [ ("dev", String dev); ("reg", String reg); ("raw", Int raw) ]
  | Reg_write { dev; reg; raw } ->
      tag "reg_write" [ ("dev", String dev); ("reg", String reg); ("raw", Int raw) ]
  | Var_read { dev; var } -> tag "var_read" [ ("dev", String dev); ("var", String var) ]
  | Var_write { dev; var; regs } ->
      tag "var_write"
        [ ("dev", String dev); ("var", String var);
          ("regs", List (List.map (fun r -> String r) regs)) ]
  | Struct_write { dev; strct; fields; regs } ->
      tag "struct_write"
        [ ("dev", String dev); ("struct", String strct);
          ("fields", List (List.map (fun f -> String f) fields));
          ("regs", List (List.map (fun r -> String r) regs)) ]
  | Cache_hit { dev; reg } -> tag "cache_hit" [ ("dev", String dev); ("reg", String reg) ]
  | Cache_miss { dev; reg } -> tag "cache_miss" [ ("dev", String dev); ("reg", String reg) ]
  | Cache_invalidated { dev } -> tag "cache_invalidated" [ ("dev", String dev) ]
  | Action { dev; owner; phase; assignments } ->
      tag "action"
        [ ("dev", String dev); ("owner", String owner);
          ("phase", String (Trace.phase_label phase));
          ("assignments", Int assignments) ]
  | Serialized { dev; owner; order } ->
      tag "serialized"
        [ ("dev", String dev); ("owner", String owner);
          ("order", List (List.map (fun r -> String r) order)) ]
  | Poll { label; iters; ok; rid } ->
      tag "poll"
        (with_rid rid
           [ ("label", String label); ("iters", Int iters); ("ok", Bool ok) ])
  | Retry { label; attempt; reason; rid } ->
      tag "retry"
        (with_rid rid
           [ ("label", String label); ("attempt", Int attempt);
             ("reason", String reason) ])
  | Fault_injected { plan; addr; width; detail } ->
      tag "fault_injected"
        [ ("plan", String plan); ("addr", Int addr); ("width", Int width);
          ("detail", String detail) ]
  | Irq_raised { line; dev; rid } ->
      tag "irq_raised" (with_rid rid [ ("line", Int line); ("dev", String dev) ])
  | Irq_delivered { line; dev; rid } ->
      tag "irq_delivered"
        (with_rid rid [ ("line", Int line); ("dev", String dev) ])
  | Queue_submitted { dev; label; depth; rid } ->
      tag "queue_submitted"
        (with_rid rid
           [ ("dev", String dev); ("label", String label); ("depth", Int depth) ])
  | Queue_started { dev; label; rid } ->
      tag "queue_started"
        (with_rid rid [ ("dev", String dev); ("label", String label) ])
  | Queue_completed { dev; label; depth; ok; rid } ->
      tag "queue_completed"
        (with_rid rid
           [ ("dev", String dev); ("label", String label); ("depth", Int depth);
             ("ok", Bool ok) ])
  | Queue_late { dev; rid } ->
      tag "queue_late" (with_rid rid [ ("dev", String dev) ])

let event_to_json (e : Trace.event) =
  match kind_to_json e.kind with
  | Obj fields -> Obj (("seq", Int e.seq) :: fields)
  | _ -> assert false

let kind_of_json j : (Trace.kind, string) result =
  let* tag = as_string "kind" j in
  (* Absent on events recorded before request ids existed (and on
     events with no request attribution), so default to 0 rather than
     bumping the format version. *)
  let rid = match as_int "rid" j with Ok n when n > 0 -> n | _ -> 0 in
  match tag with
  | "bus_read" ->
      let* addr = as_int "addr" j in
      let* width = as_int "width" j in
      let* value = as_int "value" j in
      Ok (Trace.Bus_read { addr; width; value })
  | "bus_write" ->
      let* addr = as_int "addr" j in
      let* width = as_int "width" j in
      let* value = as_int "value" j in
      Ok (Trace.Bus_write { addr; width; value })
  | "bus_block_read" ->
      let* addr = as_int "addr" j in
      let* width = as_int "width" j in
      let* count = as_int "count" j in
      Ok (Trace.Bus_block_read { addr; width; count })
  | "bus_block_write" ->
      let* addr = as_int "addr" j in
      let* width = as_int "width" j in
      let* count = as_int "count" j in
      Ok (Trace.Bus_block_write { addr; width; count })
  | "reg_read" ->
      let* dev = as_string "dev" j in
      let* reg = as_string "reg" j in
      let* raw = as_int "raw" j in
      Ok (Trace.Reg_read { dev; reg; raw })
  | "reg_write" ->
      let* dev = as_string "dev" j in
      let* reg = as_string "reg" j in
      let* raw = as_int "raw" j in
      Ok (Trace.Reg_write { dev; reg; raw })
  | "var_read" ->
      let* dev = as_string "dev" j in
      let* var = as_string "var" j in
      Ok (Trace.Var_read { dev; var })
  | "var_write" ->
      let* dev = as_string "dev" j in
      let* var = as_string "var" j in
      let* regs = as_string_list "regs" j in
      Ok (Trace.Var_write { dev; var; regs })
  | "struct_write" ->
      let* dev = as_string "dev" j in
      let* strct = as_string "struct" j in
      let* fields = as_string_list "fields" j in
      let* regs = as_string_list "regs" j in
      Ok (Trace.Struct_write { dev; strct; fields; regs })
  | "cache_hit" ->
      let* dev = as_string "dev" j in
      let* reg = as_string "reg" j in
      Ok (Trace.Cache_hit { dev; reg })
  | "cache_miss" ->
      let* dev = as_string "dev" j in
      let* reg = as_string "reg" j in
      Ok (Trace.Cache_miss { dev; reg })
  | "cache_invalidated" ->
      let* dev = as_string "dev" j in
      Ok (Trace.Cache_invalidated { dev })
  | "action" ->
      let* dev = as_string "dev" j in
      let* owner = as_string "owner" j in
      let* phase_s = as_string "phase" j in
      let* assignments = as_int "assignments" j in
      let* phase =
        match phase_s with
        | "pre" -> Ok Trace.Pre
        | "post" -> Ok Trace.Post
        | "set" -> Ok Trace.Set
        | p -> Error (Printf.sprintf "unknown action phase %S" p)
      in
      Ok (Trace.Action { dev; owner; phase; assignments })
  | "serialized" ->
      let* dev = as_string "dev" j in
      let* owner = as_string "owner" j in
      let* order = as_string_list "order" j in
      Ok (Trace.Serialized { dev; owner; order })
  | "poll" ->
      let* label = as_string "label" j in
      let* iters = as_int "iters" j in
      let* ok = as_bool "ok" j in
      Ok (Trace.Poll { label; iters; ok; rid })
  | "retry" ->
      let* label = as_string "label" j in
      let* attempt = as_int "attempt" j in
      let* reason = as_string "reason" j in
      Ok (Trace.Retry { label; attempt; reason; rid })
  | "fault_injected" ->
      let* plan = as_string "plan" j in
      let* addr = as_int "addr" j in
      let* width = as_int "width" j in
      let* detail = as_string "detail" j in
      Ok (Trace.Fault_injected { plan; addr; width; detail })
  | "irq_raised" ->
      let* line = as_int "line" j in
      let* dev = as_string "dev" j in
      Ok (Trace.Irq_raised { line; dev; rid })
  | "irq_delivered" ->
      let* line = as_int "line" j in
      let* dev = as_string "dev" j in
      Ok (Trace.Irq_delivered { line; dev; rid })
  | "queue_submitted" ->
      let* dev = as_string "dev" j in
      let* label = as_string "label" j in
      let* depth = as_int "depth" j in
      Ok (Trace.Queue_submitted { dev; label; depth; rid })
  | "queue_started" ->
      let* dev = as_string "dev" j in
      let* label = as_string "label" j in
      Ok (Trace.Queue_started { dev; label; rid })
  | "queue_completed" ->
      let* dev = as_string "dev" j in
      let* label = as_string "label" j in
      let* depth = as_int "depth" j in
      let* ok = as_bool "ok" j in
      Ok (Trace.Queue_completed { dev; label; depth; ok; rid })
  | "queue_late" ->
      let* dev = as_string "dev" j in
      Ok (Trace.Queue_late { dev; rid })
  | t -> Error (Printf.sprintf "unknown event kind %S" t)

let event_of_json j : (Trace.event, string) result =
  let* seq = as_int "seq" j in
  let* kind = kind_of_json j in
  Ok { Trace.seq; kind }

(* {1 The JSONL trace file} *)

let header = Obj [ ("devil_trace_version", Int version) ]

let events_to_jsonl events =
  let b = Buffer.create 4096 in
  Buffer.add_string b (json_to_string header);
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (json_to_string (event_to_json e));
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let to_jsonl trace = events_to_jsonl (Trace.events trace)

let lines_of s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")

let check_header ~key lines =
  match lines with
  | [] -> Error "empty file"
  | first :: rest -> (
      let* j = json_of_string first in
      match as_int key j with
      | Ok v when v = version -> Ok rest
      | Ok v ->
          Error
            (Printf.sprintf "unsupported %s %d (this build reads version %d)"
               key v version)
      | Error _ ->
          Error (Printf.sprintf "first line is not a %s header" key))

let events_of_jsonl s =
  let* body = check_header ~key:"devil_trace_version" (lines_of s) in
  List.fold_left
    (fun acc line ->
      let* acc = acc in
      let* j = json_of_string line in
      let* e = event_of_json j in
      Ok (e :: acc))
    (Ok []) body
  |> Result.map List.rev

(* {1 Chrome about://tracing JSON} *)

(* Events become a Chrome trace: one pid, one tid per instance label
   (bus/policy/fault events land on a shared "bus" thread), sequence
   numbers as microsecond timestamps. Polls, retries and block
   transfers render as duration spans ("X" phase: a poll spans its
   iteration count, a block its element count) so waiting and bulk
   movement are visible as width; everything else is an instant.

   Events carrying a request id additionally emit a flow event (the
   "s"/"t"/"f" phases, id = the request id) on the same thread and
   timestamp, so Chrome draws an arrow chain following each queued
   request from its submit through start/irq/poll steps to its
   completion — across the device and scheduler tracks. *)
let to_chrome events =
  let tids = Hashtbl.create 8 in
  let names = ref [] in
  let tid_of label =
    match Hashtbl.find_opt tids label with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.add tids label t;
        names := (label, t) :: !names;
        t
  in
  let entry ?(ph = "i") ?dur ~name ~cat ~ts ~tid args =
    let base =
      [ ("name", String name); ("cat", String cat); ("ph", String ph);
        ("ts", Int ts); ("pid", Int 1); ("tid", Int tid) ]
    in
    let base = match dur with Some d -> base @ [ ("dur", Int d) ] | None -> base in
    let base = if ph = "i" then base @ [ ("s", String "t") ] else base in
    Obj (base @ [ ("args", Obj args) ])
  in
  let flow ~ph ~ts ~tid rid =
    let base =
      [ ("name", String (Printf.sprintf "req #%d" rid));
        ("cat", String "lifecycle"); ("ph", String ph); ("id", Int rid);
        ("ts", Int ts); ("pid", Int 1); ("tid", Int tid) ]
    in
    (* "bp":"e" binds the flow end to the enclosing slice. *)
    Obj (if ph = "f" then base @ [ ("bp", String "e") ] else base)
  in
  (* Which flow phase (if any) an event contributes to its request's
     arc: the submit starts the flow, the completion ends it,
     everything in between is a step. The flow id is the request id —
     unique per request by construction. *)
  let flow_of (k : Trace.kind) =
    match k with
    | Queue_submitted { rid; dev; _ } when rid > 0 -> Some ("s", dev, rid)
    | Queue_started { rid; dev; _ } when rid > 0 -> Some ("t", dev, rid)
    | Queue_late { rid; dev } when rid > 0 -> Some ("t", dev, rid)
    | Irq_raised { rid; _ } when rid > 0 -> Some ("t", "sched", rid)
    | Irq_delivered { rid; _ } when rid > 0 -> Some ("t", "sched", rid)
    | Poll { rid; _ } when rid > 0 -> Some ("t", "policy", rid)
    | Retry { rid; _ } when rid > 0 -> Some ("t", "policy", rid)
    | Queue_completed { rid; dev; _ } when rid > 0 -> Some ("f", dev, rid)
    | _ -> None
  in
  let rows =
    List.concat_map
      (fun (e : Trace.event) ->
        let ts = e.seq in
        let main =
          match e.kind with
        | Bus_read { addr; width; value } ->
            entry ~name:(Printf.sprintf "R%d [%#x]" width addr) ~cat:"bus"
              ~ts ~tid:(tid_of "bus") [ ("value", Int value) ]
        | Bus_write { addr; width; value } ->
            entry ~name:(Printf.sprintf "W%d [%#x]" width addr) ~cat:"bus"
              ~ts ~tid:(tid_of "bus") [ ("value", Int value) ]
        | Bus_block_read { addr; width; count } ->
            entry ~ph:"X" ~dur:(max 1 count)
              ~name:(Printf.sprintf "R%d block [%#x]" width addr) ~cat:"bus"
              ~ts ~tid:(tid_of "bus") [ ("count", Int count) ]
        | Bus_block_write { addr; width; count } ->
            entry ~ph:"X" ~dur:(max 1 count)
              ~name:(Printf.sprintf "W%d block [%#x]" width addr) ~cat:"bus"
              ~ts ~tid:(tid_of "bus") [ ("count", Int count) ]
        | Reg_read { dev; reg; raw } ->
            entry ~name:("read " ^ reg) ~cat:"reg" ~ts ~tid:(tid_of dev)
              [ ("raw", Int raw) ]
        | Reg_write { dev; reg; raw } ->
            entry ~name:("write " ^ reg) ~cat:"reg" ~ts ~tid:(tid_of dev)
              [ ("raw", Int raw) ]
        | Var_read { dev; var } ->
            entry ~name:("get " ^ var) ~cat:"var" ~ts ~tid:(tid_of dev) []
        | Var_write { dev; var; regs } ->
            entry ~name:("set " ^ var) ~cat:"var" ~ts ~tid:(tid_of dev)
              [ ("regs", List (List.map (fun r -> String r) regs)) ]
        | Struct_write { dev; strct; fields; regs } ->
            entry ~name:("set struct " ^ strct) ~cat:"var" ~ts ~tid:(tid_of dev)
              [ ("fields", List (List.map (fun f -> String f) fields));
                ("regs", List (List.map (fun r -> String r) regs)) ]
        | Cache_hit { dev; reg } ->
            entry ~name:("cache hit " ^ reg) ~cat:"cache" ~ts ~tid:(tid_of dev) []
        | Cache_miss { dev; reg } ->
            entry ~name:("cache miss " ^ reg) ~cat:"cache" ~ts ~tid:(tid_of dev) []
        | Cache_invalidated { dev } ->
            entry ~name:"cache invalidated" ~cat:"cache" ~ts ~tid:(tid_of dev) []
        | Action { dev; owner; phase; assignments } ->
            entry
              ~name:(Printf.sprintf "%s-action %s" (Trace.phase_label phase) owner)
              ~cat:"action" ~ts ~tid:(tid_of dev)
              [ ("assignments", Int assignments) ]
        | Serialized { dev; owner; order } ->
            entry ~name:("serialized " ^ owner) ~cat:"action" ~ts ~tid:(tid_of dev)
              [ ("order", List (List.map (fun r -> String r) order)) ]
        | Poll { label; iters; ok; rid = _ } ->
            entry ~ph:"X" ~dur:(max 1 iters) ~name:("poll " ^ label)
              ~cat:"policy" ~ts ~tid:(tid_of "policy")
              [ ("iters", Int iters); ("ok", Bool ok) ]
        | Retry { label; attempt; reason; rid = _ } ->
            entry ~ph:"X" ~dur:1 ~name:("retry " ^ label) ~cat:"policy" ~ts
              ~tid:(tid_of "policy")
              [ ("attempt", Int attempt); ("reason", String reason) ]
        | Fault_injected { plan; addr; width; detail } ->
            entry ~name:("fault " ^ plan) ~cat:"fault" ~ts ~tid:(tid_of "fault")
              [ ("addr", Int addr); ("width", Int width); ("detail", String detail) ]
        | Irq_raised { line; dev; rid = _ } ->
            entry ~name:(Printf.sprintf "irq %d raised" line) ~cat:"irq" ~ts
              ~tid:(tid_of "sched") [ ("dev", String dev) ]
        | Irq_delivered { line; dev; rid = _ } ->
            entry ~name:(Printf.sprintf "irq %d -> %s" line dev) ~cat:"irq"
              ~ts ~tid:(tid_of "sched") [ ("dev", String dev) ]
        | Queue_submitted { dev; label; depth; rid = _ } ->
            entry ~name:("submit " ^ label) ~cat:"queue" ~ts ~tid:(tid_of dev)
              [ ("depth", Int depth) ]
        | Queue_started { dev; label; rid = _ } ->
            entry ~name:("start " ^ label) ~cat:"queue" ~ts ~tid:(tid_of dev) []
        | Queue_completed { dev; label; depth; ok; rid = _ } ->
            entry ~ph:"X" ~dur:1 ~name:("complete " ^ label) ~cat:"queue" ~ts
              ~tid:(tid_of dev)
              [ ("depth", Int depth); ("ok", Bool ok) ]
        | Queue_late { dev; rid } ->
            entry
              ~name:
                (if rid > 0 then Printf.sprintf "late completion (req #%d)" rid
                 else "spurious completion")
              ~cat:"queue" ~ts ~tid:(tid_of dev)
              [ ("rid", Int rid) ]
        in
        match flow_of e.kind with
        | None -> [ main ]
        | Some (ph, tlabel, rid) ->
            [ main; flow ~ph ~ts ~tid:(tid_of tlabel) rid ])
      events
  in
  let metadata =
    List.rev_map
      (fun (label, tid) ->
        Obj
          [ ("name", String "thread_name"); ("ph", String "M"); ("pid", Int 1);
            ("tid", Int tid); ("args", Obj [ ("name", String label) ]) ])
      !names
  in
  json_to_string (Obj [ ("traceEvents", List (metadata @ rows)) ])

(* {1 Bus tapes <-> JSONL} *)

let transfer_to_json (tr : Bus.transfer) =
  match tr with
  | T_read { width; addr; value } ->
      Obj [ ("op", String "read"); ("width", Int width); ("addr", Int addr);
            ("value", Int value) ]
  | T_write { width; addr; value } ->
      Obj [ ("op", String "write"); ("width", Int width); ("addr", Int addr);
            ("value", Int value) ]
  | T_read_block { width; addr; values } ->
      Obj [ ("op", String "read_block"); ("width", Int width); ("addr", Int addr);
            ("values", List (List.map (fun v -> Int v) (Array.to_list values))) ]
  | T_write_block { width; addr; values } ->
      Obj [ ("op", String "write_block"); ("width", Int width); ("addr", Int addr);
            ("values", List (List.map (fun v -> Int v) (Array.to_list values))) ]
  | T_fault { op; width; addr; message } ->
      Obj [ ("op", String "fault"); ("on", String op); ("width", Int width);
            ("addr", Int addr); ("message", String message) ]

let transfer_of_json j : (Bus.transfer, string) result =
  let* op = as_string "op" j in
  let* width = as_int "width" j in
  let* addr = as_int "addr" j in
  match op with
  | "read" ->
      let* value = as_int "value" j in
      Ok (Bus.T_read { width; addr; value })
  | "write" ->
      let* value = as_int "value" j in
      Ok (Bus.T_write { width; addr; value })
  | "read_block" ->
      let* values = as_int_list "values" j in
      Ok (Bus.T_read_block { width; addr; values = Array.of_list values })
  | "write_block" ->
      let* values = as_int_list "values" j in
      Ok (Bus.T_write_block { width; addr; values = Array.of_list values })
  | "fault" ->
      let* on = as_string "on" j in
      let* message = as_string "message" j in
      Ok (Bus.T_fault { op = on; width; addr; message })
  | op -> Error (Printf.sprintf "unknown transfer op %S" op)

let tape_header = Obj [ ("devil_tape_version", Int version) ]

let tape_to_jsonl tape =
  let b = Buffer.create 4096 in
  Buffer.add_string b (json_to_string tape_header);
  Buffer.add_char b '\n';
  List.iter
    (fun tr ->
      Buffer.add_string b (json_to_string (transfer_to_json tr));
      Buffer.add_char b '\n')
    (Bus.tape_transfers tape);
  Buffer.contents b

let tape_of_jsonl s =
  let* body = check_header ~key:"devil_tape_version" (lines_of s) in
  List.fold_left
    (fun acc line ->
      let* acc = acc in
      let* j = json_of_string line in
      let* tr = transfer_of_json j in
      Ok (tr :: acc))
    (Ok []) body
  |> Result.map (fun rev -> Bus.tape_of_transfers (List.rev rev))

(* {1 Profile exporters} *)

(* Folded stacks, one "root;child;leaf self_ns" line per trie node with
   self time — the input format of flamegraph.pl and of speedscope's
   importer. Span keys contain no ';' (they use '/' and ':'), so no
   quoting is needed. *)
let profile_to_folded profile =
  let b = Buffer.create 1024 in
  let rec walk stack node =
    let stack = Profile.node_name node :: stack in
    let self = Profile.node_self_ns node in
    if self > 0 then begin
      Buffer.add_string b (String.concat ";" (List.rev stack));
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int self);
      Buffer.add_char b '\n'
    end;
    List.iter (walk stack) (Profile.node_children node)
  in
  List.iter (walk []) (Profile.roots profile);
  Buffer.contents b

(* Speedscope's "sampled" profile: every trie node with self time
   becomes one weighted sample whose stack is the node's path. Frames
   are interned by name (the same key under two parents shares a
   frame, which is what makes speedscope's left-heavy view merge
   them). *)
let profile_to_speedscope ?(name = "devil profile") profile =
  let frames = Hashtbl.create 64 in
  let frame_names = ref [] in
  let frame_of key =
    match Hashtbl.find_opt frames key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length frames in
        Hashtbl.add frames key i;
        frame_names := key :: !frame_names;
        i
  in
  let samples = ref [] and weights = ref [] in
  let rec walk stack node =
    let stack = frame_of (Profile.node_name node) :: stack in
    let self = Profile.node_self_ns node in
    if self > 0 then begin
      samples := List (List.rev_map (fun i -> Int i) stack) :: !samples;
      weights := Int self :: !weights
    end;
    List.iter (walk stack) (Profile.node_children node)
  in
  List.iter (walk []) (Profile.roots profile);
  let total = List.fold_left (fun a -> function Int w -> a + w | _ -> a) 0 !weights in
  json_to_string
    (Obj
       [
         ( "$schema",
           String "https://www.speedscope.app/file-format-schema.json" );
         ( "shared",
           Obj
             [
               ( "frames",
                 List
                   (List.rev_map
                      (fun key -> Obj [ ("name", String key) ])
                      !frame_names) );
             ] );
         ( "profiles",
           List
             [
               Obj
                 [
                   ("type", String "sampled");
                   ("name", String name);
                   ("unit", String "nanoseconds");
                   ("startValue", Int 0);
                   ("endValue", Int total);
                   ("samples", List (List.rev !samples));
                   ("weights", List (List.rev !weights));
                 ];
             ] );
         ("exporter", String "devil");
         ("name", String name);
       ])

(* {1 OpenMetrics / Prometheus text exposition} *)

(* Metric names: the registry's dotted names with every non
   [A-Za-z0-9_] byte flattened to '_' and a "devil_" prefix, so
   "sched.queue.wait_ticks" scrapes as devil_sched_queue_wait_ticks. *)
let om_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "devil_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let om_label_escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_openmetrics ?health ?telemetry metrics =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s;
                                   Buffer.add_char b '\n') fmt in
  let counters = Metrics.counters metrics in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      line "# TYPE %s counter" n;
      line "%s_total %d" n v)
    counters;
  (* The eviction counter is part of the contract even when the ring
     never dropped (or no trace fed this registry): a scraper alerting
     on it must always find the sample. *)
  if not (List.mem_assoc "trace.dropped_events" counters) then begin
    line "# TYPE devil_trace_dropped_events counter";
    line "devil_trace_dropped_events_total 0"
  end;
  List.iter
    (fun (name, (snap : Metrics.hist_snapshot)) ->
      let n = om_name name in
      let buckets =
        match Metrics.hist_buckets metrics name with
        | Some bs -> bs
        | None -> Array.make Metrics.bucket_count 0
      in
      line "# TYPE %s histogram" n;
      (* Cumulative buckets up to the last occupied one; the open-ended
         tail collapses into +Inf. *)
      let last =
        let r = ref (-1) in
        Array.iteri (fun i v -> if v > 0 then r := i) buckets;
        !r
      in
      let cum = ref 0 in
      for i = 0 to last do
        cum := !cum + buckets.(i);
        line "%s_bucket{le=\"%d\"} %d" n (Metrics.bucket_upper i) !cum
      done;
      line "%s_bucket{le=\"+Inf\"} %d" n snap.count;
      line "%s_sum %d" n snap.sum;
      line "%s_count %d" n snap.count)
    (Metrics.histograms metrics);
  (match telemetry with
  | None -> ()
  | Some tel ->
      line "# TYPE devil_telemetry_ticks gauge";
      line "devil_telemetry_ticks %d" (Telemetry.ticks tel);
      line "# TYPE devil_telemetry_series_evictions counter";
      line "devil_telemetry_series_evictions_total %d" (Telemetry.evictions tel));
  (match health with
  | None -> ()
  | Some (report : Health.report) ->
      line "# TYPE devil_health gauge";
      line "# HELP devil_health 0 ok, 1 degraded, 2 stalled";
      line "devil_health %d" (Health.verdict_severity report.Health.verdict);
      List.iter
        (fun (r : Health.reason) ->
          line "devil_health_reason{code=\"%s\"} %d"
            (om_label_escape r.Health.code) r.Health.count)
        report.Health.reasons);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* {1 Telemetry series <-> JSONL} *)

type series_point =
  | S_counter of { sp_tick : int; sp_metric : string; sp_total : int;
                   sp_delta : int }
  | S_hist of { sh_tick : int; sh_metric : string; sh_count : int;
                sh_sum : int; sh_p50 : int; sh_p95 : int; sh_p99 : int }
  | S_health of { sl_tick : int; sl_verdict : string; sl_summary : string }

type series_file = {
  sf_hz : float;
  sf_ticks : int;
  sf_capacity : int;
  sf_evictions : int;
  sf_points : series_point list;
}

(* hz travels as a "%g"-rendered string, as the version-1 format fixed
   before the JSON layer had floats, and is re-parsed on read. *)
let series_to_jsonl telemetry =
  let b = Buffer.create 4096 in
  let add j =
    Buffer.add_string b (json_to_string j);
    Buffer.add_char b '\n'
  in
  add
    (Obj
       [
         ("devil_series_version", Int version);
         ("hz", String (Printf.sprintf "%g" (Telemetry.hz telemetry)));
         ("ticks", Int (Telemetry.ticks telemetry));
         ("capacity", Int (Telemetry.capacity telemetry));
         ("series_evictions", Int (Telemetry.evictions telemetry));
       ]);
  List.iter
    (fun name ->
      List.iter
        (fun (p : Telemetry.counter_point) ->
          add
            (Obj
               [
                 ("tick", Int p.Telemetry.at);
                 ("metric", String name);
                 ("kind", String "counter");
                 ("total", Int p.Telemetry.total);
                 ("delta", Int p.Telemetry.delta);
               ]))
        (Telemetry.counter_series telemetry name))
    (Telemetry.counter_names telemetry);
  List.iter
    (fun name ->
      List.iter
        (fun (p : Telemetry.hist_point) ->
          add
            (Obj
               [
                 ("tick", Int p.Telemetry.h_at);
                 ("metric", String name);
                 ("kind", String "hist");
                 ("count", Int p.Telemetry.h_count);
                 ("sum", Int p.Telemetry.h_sum);
                 ("p50", Int p.Telemetry.h_p50);
                 ("p95", Int p.Telemetry.h_p95);
                 ("p99", Int p.Telemetry.h_p99);
               ]))
        (Telemetry.hist_series telemetry name))
    (Telemetry.hist_names telemetry);
  List.iter
    (fun (p : Telemetry.health_point) ->
      add
        (Obj
           [
             ("tick", Int p.Telemetry.hp_at);
             ("kind", String "health");
             ("verdict", String p.Telemetry.hp_verdict);
             ("summary", String p.Telemetry.hp_summary);
           ]))
    (Telemetry.health_series telemetry);
  Buffer.contents b

let series_point_of_json j =
  let* kind = as_string "kind" j in
  match kind with
  | "counter" ->
      let* sp_tick = as_int "tick" j in
      let* sp_metric = as_string "metric" j in
      let* sp_total = as_int "total" j in
      let* sp_delta = as_int "delta" j in
      Ok (S_counter { sp_tick; sp_metric; sp_total; sp_delta })
  | "hist" ->
      let* sh_tick = as_int "tick" j in
      let* sh_metric = as_string "metric" j in
      let* sh_count = as_int "count" j in
      let* sh_sum = as_int "sum" j in
      let* sh_p50 = as_int "p50" j in
      let* sh_p95 = as_int "p95" j in
      let* sh_p99 = as_int "p99" j in
      Ok (S_hist { sh_tick; sh_metric; sh_count; sh_sum; sh_p50; sh_p95;
                   sh_p99 })
  | "health" ->
      let* sl_tick = as_int "tick" j in
      let* sl_verdict = as_string "verdict" j in
      let* sl_summary = as_string "summary" j in
      Ok (S_health { sl_tick; sl_verdict; sl_summary })
  | k -> Error (Printf.sprintf "unknown series point kind %S" k)

let series_of_jsonl s =
  match lines_of s with
  | [] -> Error "empty file"
  | first :: body ->
      let* hdr = json_of_string first in
      let* v = Result.map_error
          (fun _ -> "first line is not a devil_series_version header")
          (as_int "devil_series_version" hdr)
      in
      let* () =
        if v = version then Ok ()
        else
          Error
            (Printf.sprintf
               "unsupported devil_series_version %d (this build reads version \
                %d)" v version)
      in
      let* hz_s = as_string "hz" hdr in
      let* sf_hz =
        match float_of_string_opt hz_s with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "hz %S is not a number" hz_s)
      in
      let* sf_ticks = as_int "ticks" hdr in
      let* sf_capacity = as_int "capacity" hdr in
      let* sf_evictions = as_int "series_evictions" hdr in
      let* sf_points =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            let* j = json_of_string line in
            let* p = series_point_of_json j in
            Ok (p :: acc))
          (Ok []) body
        |> Result.map List.rev
      in
      Ok { sf_hz; sf_ticks; sf_capacity; sf_evictions; sf_points }

(* {1 Files} *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let events_of_file path =
  let* s = read_file path in
  events_of_jsonl s

let tape_of_file path =
  let* s = read_file path in
  tape_of_jsonl s

let series_of_file path =
  let* s = read_file path in
  series_of_jsonl s
