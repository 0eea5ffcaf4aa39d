(* devilc: the Devil compiler command-line driver.

   Subcommands:
   - check:      parse, elaborate and verify a specification;
   - emit-c:     generate the C stub header (the paper's output);
   - doc:        render the specification as a data sheet;
   - dump:       pretty-print the parsed specification;
   - list:       show the bundled specification library.

   Input is a .dil file, or a bundled specification selected with
   --builtin NAME. *)

module Specs = Devil_specs.Specs
module Check = Devil_check.Check
module Value = Devil_ir.Value
module Diagnostics = Devil_syntax.Diagnostics

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      close_out oc)

let load ~builtin ~file =
  match (builtin, file) with
  | Some name, None -> (
      match List.assoc_opt name Specs.all with
      | Some src -> Ok (name ^ ".dil", src)
      | None ->
          Error
            (Printf.sprintf "unknown builtin %s (try: %s)" name
               (String.concat ", " (List.map fst Specs.all))))
  | None, Some path -> (
      match read_file path with
      | src -> Ok (path, src)
      | exception Sys_error msg -> Error msg)
  | Some _, Some _ -> Error "give either --builtin or a file, not both"
  | None, None -> Error "no input: give a .dil file or --builtin NAME"

let parse_config specs =
  (* --config name=true|false|int *)
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith ("malformed --config binding: " ^ spec)
      | Some i ->
          let name = String.sub spec 0 i in
          let v = String.sub spec (i + 1) (String.length spec - i - 1) in
          let value =
            match v with
            | "true" -> Value.Bool true
            | "false" -> Value.Bool false
            | _ -> (
                match int_of_string_opt v with
                | Some n -> Value.Int n
                | None -> Value.Enum v)
          in
          (name, value))
    specs

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "builtin" ] ~docv:"NAME"
        ~doc:"Use a specification bundled with the compiler.")

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Devil specification to process.")

let config_arg =
  Arg.(
    value & opt_all string []
    & info [ "c"; "config" ] ~docv:"NAME=VALUE"
        ~doc:
          "Configuration value for a device parameter (needed by \
           specifications with conditional declarations). Repeatable.")

let with_input builtin file config k =
  match load ~builtin ~file with
  | Error msg ->
      Format.eprintf "devilc: %s@." msg;
      1
  | Ok (name, src) -> (
      match parse_config config with
      | exception Failure msg ->
          Format.eprintf "devilc: %s@." msg;
          1
      | config -> k ~name ~src ~config)

let compile ~name ~src ~config =
  Check.compile ~config ~file:name src

let check_cmd =
  let run builtin file config =
    with_input builtin file config (fun ~name ~src ~config ->
        match compile ~name ~src ~config with
        | Ok device ->
            Format.printf
              "%s: specification verified (%d port(s), %d register(s), %d \
               variable(s), %d structure(s))@."
              name
              (List.length device.Devil_ir.Ir.d_ports)
              (List.length device.Devil_ir.Ir.d_regs)
              (List.length device.Devil_ir.Ir.d_vars)
              (List.length device.Devil_ir.Ir.d_structs);
            0
        | Error diags ->
            Format.eprintf "%a@." Diagnostics.pp diags;
            1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify a Devil specification (paper section 3.1).")
    Term.(const run $ builtin_arg $ file_arg $ config_arg)

let emit_c_cmd =
  let prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "prefix" ] ~docv:"PREFIX"
          ~doc:"Accessor prefix of the generated stubs (default: device name).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the header to $(docv) instead of standard output.")
  in
  let run builtin file config prefix output =
    with_input builtin file config (fun ~name ~src ~config ->
        match compile ~name ~src ~config with
        | Error diags ->
            Format.eprintf "%a@." Diagnostics.pp diags;
            1
        | Ok device -> (
            let header = Devil_codegen.C_backend.generate ?prefix device in
            match output with
            | None ->
                print_string header;
                0
            | Some path -> (
                match write_file path header with
                | () -> 0
                | exception Sys_error msg ->
                    Format.eprintf "devilc: %s@." msg;
                    1)))
  in
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:"Generate the C stub header for a verified specification.")
    Term.(
      const run $ builtin_arg $ file_arg $ config_arg $ prefix_arg $ out_arg)

let doc_cmd =
  let markdown_arg =
    Arg.(
      value & flag
      & info [ "m"; "markdown" ] ~doc:"Emit Markdown instead of plain text.")
  in
  let run builtin file config markdown =
    with_input builtin file config (fun ~name ~src ~config ->
        match compile ~name ~src ~config with
        | Error diags ->
            Format.eprintf "%a@." Diagnostics.pp diags;
            1
        | Ok device ->
            print_string
              (if markdown then Devil_codegen.Doc_backend.generate_markdown device
               else Devil_codegen.Doc_backend.generate device);
            0)
  in
  Cmd.v
    (Cmd.info "doc"
       ~doc:
         "Render a verified specification as a data sheet (register map, \
          functional interface).")
    Term.(const run $ builtin_arg $ file_arg $ config_arg $ markdown_arg)

let dump_cmd =
  let run builtin file config =
    with_input builtin file config (fun ~name ~src ~config:_ ->
        match Devil_syntax.Parser.parse_device_result ~file:name src with
        | Ok ast ->
            Format.printf "%a@." Devil_syntax.Pretty.pp_device ast;
            0
        | Error item ->
            Format.eprintf "%a@." Diagnostics.pp_item item;
            1)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Parse and pretty-print a specification.")
    Term.(const run $ builtin_arg $ file_arg $ config_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (name, src) ->
        Format.printf "%-20s %4d lines@." name
          (List.length (String.split_on_char '\n' src)))
      Specs.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the bundled device specifications.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "devilc" ~version:"1.0"
       ~doc:
         "Compiler for Devil, the IDL for hardware programming (OSDI 2000).")
    [ check_cmd; emit_c_cmd; doc_cmd; dump_cmd; list_cmd ]

let () = exit (Cmd.eval' main)
