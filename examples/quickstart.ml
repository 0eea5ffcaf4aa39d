(* Quickstart: the complete Devil tool-chain in one file.

   1. Write (or load) a specification — here the paper's Figure 1.
   2. Compile it: parse, elaborate, verify (paper section 3.1).
   3. Generate the C stubs the paper's compiler emitted (Figure 3c).
   4. Bind the same specification to a simulated device and drive it
      through the runtime's compiled accessors.

   Run with: dune exec examples/quickstart.exe *)

module Specs = Devil_specs.Specs
module Check = Devil_check.Check
module Instance = Devil_runtime.Instance
module Value = Devil_ir.Value

let () =
  (* 1-2. Compile the busmouse specification. *)
  let device =
    match Check.compile ~file:"busmouse.dil" Specs.busmouse_source with
    | Ok device -> device
    | Error diags ->
        Format.eprintf "%a@." Devil_syntax.Diagnostics.pp diags;
        exit 1
  in
  Format.printf "verified %s: %d registers, %d variables@." device.d_name
    (List.length device.d_regs)
    (List.length device.d_vars);

  (* 3. Generate the C stub header. *)
  let header = Devil_codegen.C_backend.generate ~prefix:"bm" device in
  Format.printf "generated %d bytes of C stubs; first lines:@."
    (String.length header);
  String.split_on_char '\n' header
  |> List.filteri (fun i _ -> i < 3)
  |> List.iter print_endline;

  (* 4. Bind the specification to a simulated mouse and use it. *)
  let space = Hwsim.Io_space.create () in
  let mouse = Hwsim.Busmouse.create () in
  Hwsim.Io_space.attach space ~base:0x23c ~size:4 (Hwsim.Busmouse.model mouse);
  let inst =
    Instance.create ~debug:true device ~bus:(Hwsim.Io_space.bus space)
      ~bases:[ ("base", 0x23c) ]
  in
  Hwsim.Busmouse.move mouse ~dx:17 ~dy:(-4);
  Hwsim.Busmouse.set_buttons mouse 0b001;
  Instance.get_struct inst "mouse_state";
  Format.printf "mouse state: dx=%a dy=%a buttons=%a (%d I/O operations)@."
    Value.pp (Instance.get inst "dx") Value.pp (Instance.get inst "dy")
    Value.pp
    (Instance.get inst "buttons")
    (Hwsim.Io_space.io_ops space)
