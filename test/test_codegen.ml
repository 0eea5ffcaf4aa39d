(* Tests for the C backend: structural golden checks on the generated
   busmouse header (paper Figure 3), determinism, and — when a C
   compiler is available — an end-to-end test that compiles the
   generated stubs against a tiny C device model and runs them, plus
   scenarios on all eleven built-ins in which the header must issue
   the interpreter's exact bus traffic and refuse what it refuses.
   Without gcc the gcc tests are skipped. *)

module C_backend = Devil_codegen.C_backend
module Specs = Devil_specs.Specs
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Ir = Devil_ir.Ir
module Value = Devil_ir.Value

let case name f = Alcotest.test_case name `Quick f

let header () = C_backend.generate ~prefix:"bm" (Specs.busmouse ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let must_contain h fragment =
  if not (contains h fragment) then
    Alcotest.fail ("generated header lacks: " ^ fragment)

let test_structural_golden () =
  let h = header () in
  (* The cache structure of Figure 3c. *)
  must_contain h "struct bm_devil_cache";
  must_contain h "static struct bm_devil_cache bm_cache;";
  must_contain h "struct {";
  (* Enum case macros. *)
  must_contain h "#define BM_CONFIG_CONFIGURATION 0x1u";
  must_contain h "#define BM_INTERRUPT_ENABLE 0x0u";
  (* Masked register write: cr forces 1001000. -> 0x90 over bit 0. *)
  must_contain h "outb((raw & 0x1u) | 0x90u, bm_cache.__dil_base__ + 3);";
  (* Index pre-action inlined into the x_high reader (index = 1). *)
  must_contain h "bm_set_index(0x1u);";
  (* The structure getter reads each register once. *)
  must_contain h "bm_cache.cache_mouse_state.cache_y_high = bm_read_y_high();";
  (* Sign extension for the signed dx/dy accessors. *)
  must_contain h ">> 24)";
  (* Dynamic checks are guarded. *)
  must_contain h "#ifdef DEVIL_DEBUG"

let test_deterministic () =
  Alcotest.(check string) "same output twice" (header ()) (header ())

let test_all_specs_generate () =
  List.iter
    (fun (name, _) ->
      let device =
        match name with
        | "logitech_busmouse" -> Specs.busmouse ()
        | "ne2000" -> Specs.ne2000 ()
        | "ide" -> Specs.ide ()
        | "piix4_ide" -> Specs.piix4_ide ()
        | "dma8237" -> Specs.dma8237 ()
        | "pic8259" -> Specs.pic8259 ()
        | "cs4236b" -> Specs.cs4236b ()
        | "permedia2" -> Specs.permedia2 ()
        | "uart16550" -> Specs.uart16550 ()
        | "mc146818" -> Specs.mc146818 ()
        | "i8042" -> Specs.i8042 ()
        | other -> Alcotest.fail ("unknown spec " ^ other)
      in
      let h = C_backend.generate device in
      Alcotest.(check bool)
        (name ^ " nonempty") true
        (String.length h > 500))
    Specs.all

(* {1 Doc backend} *)

let test_doc_text () =
  let doc = Devil_codegen.Doc_backend.generate (Specs.busmouse ()) in
  List.iter (must_contain doc)
    [
      "Device logitech_busmouse";
      "Register map";
      "Functional interface";
      (* per-bit ownership of the index register *)
      "[=1 | index | index | =0 | =0 | =0 | =0 | =0]";
      "volatile, write trigger";
    ];
  (* Serialization orders appear for the 8237's 16-bit counters. *)
  let dma_doc = Devil_codegen.Doc_backend.generate (Specs.dma8237 ()) in
  must_contain dma_doc "serialized as: cnt0_low; cnt0_high"

let test_doc_markdown () =
  let doc = Devil_codegen.Doc_backend.generate_markdown (Specs.cs4236b ()) in
  must_contain doc "# Device cs4236b";
  must_contain doc "| register | acc | read at | write at |";
  must_contain doc "parameterized";
  (* Private state section lists the automaton cell. *)
  must_contain doc "xm"

let test_doc_all_specs () =
  List.iter
    (fun (name, src) ->
      let config =
        if name = "pic8259" then
          [ ("is_master", Devil_ir.Value.Bool true) ]
        else []
      in
      match Devil_check.Check.compile ~config src with
      | Ok device ->
          let doc = Devil_codegen.Doc_backend.generate device in
          Alcotest.(check bool) (name ^ " doc nonempty") true
            (String.length doc > 300)
      | Error _ -> Alcotest.fail name)
    Specs.all

let c_harness =
  {|
#include <stdio.h>
#include <stdlib.h>

static int bm_dx = 5, bm_dy = -3, bm_buttons = 5, bm_index = 0, bm_sig = 0;
static unsigned int inb(unsigned long addr) {
  unsigned ux = bm_dx & 0xff, uy = bm_dy & 0xff;
  switch ((int)(addr - 0x23c)) {
  case 0:
    switch (bm_index) {
    case 0: return ux & 0xf;
    case 1: return (ux >> 4) & 0xf;
    case 2: return uy & 0xf;
    default: return (bm_buttons << 5) | ((uy >> 4) & 0xf);
    }
  case 1: return bm_sig;
  default: return 0xff;
  }
}
static void outb(unsigned int v, unsigned long addr) {
  switch ((int)(addr - 0x23c)) {
  case 1: bm_sig = v & 0xff; break;
  case 2: if (v & 0x80) bm_index = (v >> 5) & 3; break;
  default: break;
  }
}
static void insb(unsigned long p, void *b, unsigned n) { (void)p;(void)b;(void)n; }
static void insw(unsigned long p, void *b, unsigned n) { (void)p;(void)b;(void)n; }
static void insl(unsigned long p, void *b, unsigned n) { (void)p;(void)b;(void)n; }
static void outsb(unsigned long p, const void *b, unsigned n) { (void)p;(void)b;(void)n; }
static void outsw(unsigned long p, const void *b, unsigned n) { (void)p;(void)b;(void)n; }
static void outsl(unsigned long p, const void *b, unsigned n) { (void)p;(void)b;(void)n; }
void devil_check_failed(const char *what) {
  fprintf(stderr, "devil check failed: %s\n", what);
  exit(1);
}
#define DEVIL_DEBUG
#include "busmouse.dil.h"

int main(void) {
  bm_init(0x23c);
  bm_set_signature(0xa5);
  if (bm_get_signature() != 0xa5) return 1;
  bm_set_config(BM_CONFIG_DEFAULT_MODE);
  bm_set_interrupt(BM_INTERRUPT_ENABLE);
  bm_get_mouse_state();
  if (bm_get_dx() != 5 || bm_get_dy() != -3 || bm_get_buttons() != 5) return 2;
  printf("GENERATED-C-OK\n");
  return 0;
}
|}

(* Without gcc the gcc tests are reported as skipped, not passed. *)
let need_gcc () =
  if Sys.command "command -v gcc > /dev/null 2>&1" <> 0 then Alcotest.skip ()

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let test_gcc_end_to_end () =
  need_gcc ();
  let dir = fresh_dir "devil_cgen" in
  write_file (Filename.concat dir "busmouse.dil.h") (header ());
  write_file (Filename.concat dir "main.c") c_harness;
  let cmd =
    Printf.sprintf
      "cd %s && gcc -std=c99 -Wall -Werror -Wno-unused-function -o t main.c \
       && ./t > out.txt 2>&1"
      (Filename.quote dir)
  in
  Alcotest.(check int) "gcc compile and run" 0 (Sys.command cmd);
  Alcotest.(check string) "program output" "GENERATED-C-OK\n"
    (read_file (Filename.concat dir "out.txt"))

(* The string instructions the headers' block stubs call, for a
   header that is only compiled. *)
let block_shims =
  "static void insb(unsigned long p,void*b,unsigned n){(void)p;(void)b;(void)n;}\n\
   static void insw(unsigned long p,void*b,unsigned n){(void)p;(void)b;(void)n;}\n\
   static void insl(unsigned long p,void*b,unsigned n){(void)p;(void)b;(void)n;}\n\
   static void outsb(unsigned long p,const void*b,unsigned n){(void)p;(void)b;(void)n;}\n\
   static void outsw(unsigned long p,const void*b,unsigned n){(void)p;(void)b;(void)n;}\n\
   static void outsl(unsigned long p,const void*b,unsigned n){(void)p;(void)b;(void)n;}\n"

let test_gcc_all_headers_compile () =
  (* Every generated header must at least compile standalone. *)
  need_gcc ();
  let dir = fresh_dir "devil_cgen_all" in
  let shims =
    "static unsigned int inb(unsigned long a){(void)a;return 0;}\n\
     static unsigned int inw(unsigned long a){(void)a;return 0;}\n\
     static unsigned int inl(unsigned long a){(void)a;return 0;}\n\
     static void outb(unsigned int v,unsigned long a){(void)v;(void)a;}\n\
     static void outw(unsigned int v,unsigned long a){(void)v;(void)a;}\n\
     static void outl(unsigned int v,unsigned long a){(void)v;(void)a;}\n"
    ^ block_shims
  in
  List.iter
    (fun (name, device) ->
      let h = C_backend.generate ~prefix:name device in
      write_file (Filename.concat dir (name ^ ".h")) h;
      write_file
        (Filename.concat dir (name ^ ".c"))
        (Printf.sprintf "%s#include \"%s.h\"\nint main(void){return 0;}\n"
           shims name);
      let cmd =
        Printf.sprintf
          "cd %s && gcc -std=c99 -Wall -Wno-unused-function -c %s.c 2> %s.err"
          (Filename.quote dir) name name
      in
      if Sys.command cmd <> 0 then
        Alcotest.fail
          (Printf.sprintf "%s.h does not compile:\n%s" name
             (read_file (Filename.concat dir (name ^ ".err")))))
    [
      ("busmouse", Specs.busmouse ());
      ("ne2000", Specs.ne2000 ());
      ("ide", Specs.ide ());
      ("piix4", Specs.piix4_ide ());
      ("dma8237", Specs.dma8237 ());
      ("pic8259", Specs.pic8259 ());
      ("cs4236b", Specs.cs4236b ());
      ("permedia2", Specs.permedia2 ());
      ("uart16550", Specs.uart16550 ());
      ("mc146818", Specs.mc146818 ());
      ("i8042", Specs.i8042 ());
    ]

(* {1 The C header against the interpreter}

   A scenario runs on the interpreter over its device model, through
   [Bus.recording]. A generated harness then runs the same stub calls
   on the C header: its [inb]/[outb] serve the tape's read values in
   order and print every request, and it prints what each getter
   returns. The header must issue exactly the tape's requests and its
   getters must return the interpreter's values. *)

type step =
  | Set of string * Value.t
  | Get of string  (** the value is compared *)
  | Get_struct of string
  | Set_struct of string * (string * Value.t) list  (** every field *)
  | Read_block of string * int  (** the values are compared *)
  | Write_block of string * int list
  | Read_indexed of string * int list  (** the value is compared *)
  | Write_indexed of string * int list * int
  | Rejected of string * step
      (** the dynamic check named by the string must refuse the step *)
  | Device of (unit -> unit)  (** acts on the model; no stub call *)

type scenario = {
  device : Ir.device;
  prefix : string;
  bases : (string * int) list;
  attach : Hwsim.Io_space.t -> unit;
  steps : step list;
}

let int_of_value = function
  | Value.Int n -> n
  | Value.Bool b -> Bool.to_int b
  | Value.Enum c -> Alcotest.fail ("enum getter result " ^ c)

let value_line var n = Printf.sprintf "= %s %d" var n
let rejected_line what = "= rejected " ^ what
let accepted_line = "= accepted"

(* The request log line of a taped transfer; the harness prints the
   same format. *)
let request_line = function
  | Bus.T_read { width; addr; _ } -> Printf.sprintf "R%d %x" width addr
  | Bus.T_write { width; addr; value } ->
      Printf.sprintf "W%d %x %x" width addr value
  | Bus.T_read_block { width; addr; values } ->
      Printf.sprintf "RB%d %x %d" width addr (Array.length values)
  | Bus.T_write_block { width; addr; values } ->
      Printf.sprintf "WB%d %x%s" width addr
        (String.concat "" (List.map (Printf.sprintf " %x") (Array.to_list values)))
  | tr -> Alcotest.failf "unexpected transfer %a" Bus.pp_transfer tr

(* The value lines of one step on the interpreter. *)
let rec interpret_step inst = function
  | Set (var, v) ->
      Instance.set inst var v;
      []
  | Get var -> [ value_line var (int_of_value (Instance.get inst var)) ]
  | Get_struct s ->
      Instance.get_struct inst s;
      []
  | Set_struct (s, fields) ->
      Instance.set_struct inst s fields;
      []
  | Read_block (var, count) ->
      List.map (value_line var)
        (Array.to_list (Instance.read_block inst var ~count))
  | Write_block (var, values) ->
      Instance.write_block inst var (Array.of_list values);
      []
  | Read_indexed (template, args) ->
      [ value_line template (Instance.read_indexed inst ~template ~args) ]
  | Write_indexed (template, args, raw) ->
      Instance.write_indexed inst ~template ~args raw;
      []
  | Rejected (what, s) -> (
      match interpret_step inst s with
      | exception Instance.Device_error _ -> [ rejected_line what ]
      | lines -> lines @ [ accepted_line ])
  | Device act ->
      act ();
      []

(* The tape and the value lines of the scenario on the interpreter. *)
let interpret sc =
  let io = Hwsim.Io_space.create () in
  sc.attach io;
  let tape, bus = Bus.recording (Hwsim.Io_space.bus io) in
  let inst = Instance.create ~interpret:true sc.device ~bus ~bases:sc.bases in
  let values = List.concat_map (interpret_step inst) sc.steps in
  (Bus.tape_transfers tape, values)

let c_value prefix var = function
  | Value.Int n -> string_of_int n
  | Value.Bool b -> if b then "1" else "0"
  | Value.Enum c -> String.uppercase_ascii (String.concat "_" [ prefix; var; c ])

let c_ints l = String.concat ", " (List.map string_of_int l)

(* The harness lines that make one step's stub call and print its
   value lines. *)
let rec c_call sc step =
  let p = sc.prefix in
  match step with
  | Set (var, v) -> [ Printf.sprintf "  %s_set_%s(%s);" p var (c_value p var v) ]
  | Get var ->
      [ Printf.sprintf "  printf(\"= %s %%d\\n\", (int)%s_get_%s());" var p var ]
  | Get_struct s -> [ Printf.sprintf "  %s_get_%s();" p s ]
  | Set_struct (s, fields) ->
      let st =
        List.find (fun (st : Ir.strct) -> st.s_name = s) sc.device.d_structs
      in
      let arg f = c_value p f (List.assoc f fields) in
      [
        Printf.sprintf "  %s_set_%s(%s);" p s
          (String.concat ", " (List.map arg st.s_fields));
      ]
  | Read_block (var, count) ->
      [
        Printf.sprintf "  { unsigned int buf[%d]; int k; %s_read_%s_block(buf, %d);"
          count p var count;
        Printf.sprintf
          "    for (k = 0; k < %d; k++) printf(\"= %s %%d\\n\", (int)buf[k]); }"
          count var;
      ]
  | Write_block (var, values) ->
      [
        Printf.sprintf
          "  { static const unsigned int buf[] = { %s }; %s_write_%s_block(buf, %d); }"
          (c_ints values) p var (List.length values);
      ]
  | Read_indexed (template, args) ->
      [
        Printf.sprintf "  printf(\"= %s %%d\\n\", (int)%s_read_%s(%s));" template
          p template (c_ints args);
      ]
  | Write_indexed (template, args, raw) ->
      [ Printf.sprintf "  %s_write_%s(%s);" p template (c_ints (args @ [ raw ])) ]
  | Rejected (_, s) ->
      [ "  check_armed = 1;"; "  if (setjmp(check_jmp) == 0) {" ]
      @ c_call sc s
      @ [
          Printf.sprintf "    printf(\"%s\\n\");" accepted_line;
          "  }";
          "  check_armed = 0;";
        ]
  | Device _ -> []

let c_harness_for sc tape =
  let reads =
    List.concat_map
      (function
        | Bus.T_read { value; _ } -> [ string_of_int value ]
        | Bus.T_read_block { values; _ } ->
            List.map string_of_int (Array.to_list values)
        | _ -> [])
      tape
  in
  let init =
    List.map
      (fun (p : Ir.port) -> string_of_int (List.assoc p.p_name sc.bases))
      sc.device.d_ports
  in
  String.concat "\n"
    ([
       "#include <setjmp.h>";
       "#include <stdio.h>";
       "#include <stdlib.h>";
       Printf.sprintf "static const unsigned int tape_reads[] = { %s };"
         (String.concat ", " (reads @ [ "0" ]));
       Printf.sprintf "static const unsigned int tape_count = %d;"
         (List.length reads);
       "static unsigned int tape_next;";
       "static unsigned int tape_value(void) {";
       "  return tape_next < tape_count ? tape_reads[tape_next++] : 0;";
       "}";
       "static unsigned int tape_in(int w, unsigned long a) {";
       "  printf(\"R%d %lx\\n\", w, a);";
       "  return tape_value();";
       "}";
       "static void tape_out(int w, unsigned int v, unsigned long a) {";
       "  printf(\"W%d %lx %x\\n\", w, a, v);";
       "}";
       "static void tape_ins(int w, unsigned long a, unsigned int *b, unsigned int n) {";
       "  unsigned int k;";
       "  printf(\"RB%d %lx %u\\n\", w, a, n);";
       "  for (k = 0; k < n; k++) b[k] = tape_value();";
       "}";
       "static void tape_outs(int w, unsigned long a, const unsigned int *b, unsigned int n) {";
       "  unsigned int k;";
       "  printf(\"WB%d %lx\", w, a);";
       "  for (k = 0; k < n; k++) printf(\" %x\", b[k]);";
       "  printf(\"\\n\");";
       "}";
       "static unsigned int inb(unsigned long a) { return tape_in(8, a); }";
       "static unsigned int inw(unsigned long a) { return tape_in(16, a); }";
       "static unsigned int inl(unsigned long a) { return tape_in(32, a); }";
       "static void outb(unsigned int v, unsigned long a) { tape_out(8, v, a); }";
       "static void outw(unsigned int v, unsigned long a) { tape_out(16, v, a); }";
       "static void outl(unsigned int v, unsigned long a) { tape_out(32, v, a); }";
       "#define __devil_ins8(p, b, n) tape_ins(8, (p), (b), (n))";
       "#define __devil_ins16(p, b, n) tape_ins(16, (p), (b), (n))";
       "#define __devil_ins32(p, b, n) tape_ins(32, (p), (b), (n))";
       "#define __devil_outs8(p, b, n) tape_outs(8, (p), (b), (n))";
       "#define __devil_outs16(p, b, n) tape_outs(16, (p), (b), (n))";
       "#define __devil_outs32(p, b, n) tape_outs(32, (p), (b), (n))";
       "static jmp_buf check_jmp;";
       "static int check_armed;";
       "void devil_check_failed(const char *what) {";
       Printf.sprintf "  if (check_armed) { printf(\"%s\\n\", what); longjmp(check_jmp, 1); }"
         (rejected_line "%s");
       "  printf(\"check failed: %s\\n\", what);";
       "  exit(1);";
       "}";
       "#define DEVIL_DEBUG";
       "#include \"stubs.h\"";
       "int main(void) {";
       Printf.sprintf "  %s_init(%s);" sc.prefix (String.concat ", " init);
     ]
    @ List.concat_map (c_call sc) sc.steps
    @ [ "  return 0;"; "}"; "" ])

(* Runs the scenario on both sides and returns the interpreter's value
   lines once the C header has matched them. *)
let c_differential sc =
  let tape, values = interpret sc in
  let dir = fresh_dir "devil_cdiff" in
  write_file (Filename.concat dir "stubs.h")
    (C_backend.generate ~prefix:sc.prefix sc.device);
  write_file (Filename.concat dir "main.c") (c_harness_for sc tape);
  let cmd =
    Printf.sprintf
      "cd %s && gcc -std=c99 -Wall -Werror -Wno-unused-function -o t main.c \
       > out.txt 2>&1 && ./t > out.txt 2>&1"
      (Filename.quote dir)
  in
  let status = Sys.command cmd in
  let out = read_file (Filename.concat dir "out.txt") in
  if status <> 0 then Alcotest.failf "harness failed (%d):\n%s" status out;
  let lines = String.split_on_char '\n' out |> List.filter (( <> ) "") in
  let starts c l = l.[0] = c in
  Alcotest.(check (list string))
    "requests" (List.map request_line tape)
    (List.filter (fun l -> starts 'R' l || starts 'W' l) lines);
  Alcotest.(check (list string))
    "getter values" values
    (List.filter (starts '=') lines);
  values

let busmouse_scenario mouse steps =
  {
    device = Specs.busmouse ();
    prefix = "bm";
    bases = [ ("base", 0x23c) ];
    attach =
      (fun io ->
        Hwsim.Io_space.attach io ~base:0x23c ~size:4
          (Hwsim.Busmouse.model mouse));
    steps;
  }

let test_c_busmouse_differential () =
  need_gcc ();
  let mouse = Hwsim.Busmouse.create () in
  let values =
    c_differential
      (busmouse_scenario mouse
         [
           Set ("signature", Value.Int 0x5a);
           Get "signature";
           Set ("config", Value.Enum "DEFAULT_MODE");
           Set ("interrupt", Value.Enum "ENABLE");
           Device
             (fun () ->
               Hwsim.Busmouse.move mouse ~dx:11 ~dy:(-7);
               Hwsim.Busmouse.set_buttons mouse 0b110);
           Get_struct "mouse_state";
           Get "dx";
           Get "dy";
           Get "buttons";
         ])
  in
  Alcotest.(check (list string))
    "interpreter values"
    [
      value_line "signature" 0x5a;
      value_line "dx" 11;
      value_line "dy" (-7);
      value_line "buttons" 0b110;
    ]
    values

let test_c_i8042_differential () =
  need_gcc ();
  let kbd = Hwsim.I8042.create () in
  let status =
    [ Get_struct "kbd_status"; Get "output_full"; Get "system_flag"; Get "kbd_data" ]
  in
  let values =
    c_differential
      {
        device = Specs.i8042 ();
        prefix = "i8042";
        bases = [ ("data", 0x60); ("ctl", 0x64) ];
        attach =
          (fun io ->
            Hwsim.Io_space.attach io ~base:0x60 ~size:1 (Hwsim.I8042.data_model kbd);
            Hwsim.Io_space.attach io ~base:0x64 ~size:1
              (Hwsim.I8042.control_model kbd));
        steps =
          (Set ("controller_command", Value.Enum "SELF_TEST") :: status)
          @ Device
              (fun () ->
                Alcotest.(check bool) "press accepted" true
                  (Hwsim.I8042.press kbd 0x1c))
            :: status;
      }
  in
  Alcotest.(check (list string))
    "interpreter values"
    [
      value_line "output_full" 1;
      value_line "system_flag" 1;
      value_line "kbd_data" 0x55;
      value_line "output_full" 1;
      value_line "system_flag" 1;
      value_line "kbd_data" 0x1c;
    ]
    values

(* The header's DEVIL_DEBUG checks refuse what the interpreter
   refuses, and both make no transfer for a refused call. *)
let test_c_busmouse_checks () =
  need_gcc ();
  let values =
    c_differential
      (busmouse_scenario (Hwsim.Busmouse.create ())
         [
           Rejected ("signature", Set ("signature", Value.Int 0x1ff));
           Rejected ("config", Set ("config", Value.Int 2));
           Rejected ("signature", Set ("signature", Value.Int 0x5a));
           Get "signature";
         ])
  in
  Alcotest.(check (list string))
    "interpreter values"
    [
      rejected_line "signature";
      rejected_line "config";
      accepted_line;
      value_line "signature" 0x5a;
    ]
    values

(* The UART: the DLAB overlay behind the serialized 16-bit divisor,
   block transfers and a structure read. *)
let test_c_uart_differential () =
  need_gcc ();
  let uart = Hwsim.Uart16550.create () in
  let values =
    c_differential
      {
        device = Specs.uart16550 ();
        prefix = "uart";
        bases = [ ("base", 0x3f8) ];
        attach =
          (fun io ->
            Hwsim.Io_space.attach io ~base:0x3f8 ~size:8
              (Hwsim.Uart16550.model uart));
        steps =
          [
            Set ("divisor", Value.Int (115200 / 19200));
            Set ("word_length", Value.Enum "BITS8");
            Set ("two_stop_bits", Value.Bool false);
            Write_block ("tx_data", [ Char.code 'o'; Char.code 'k' ]);
            Device
              (fun () ->
                Alcotest.(check int) "device divisor" 6
                  (Hwsim.Uart16550.divisor uart);
                Alcotest.(check string) "wire" "ok"
                  (Hwsim.Uart16550.take_transmitted uart);
                Hwsim.Uart16550.inject uart "hi");
            Read_block ("rx_data", 2);
            Get_struct "line_status";
            Get "thr_empty";
            Get "data_ready";
          ];
      }
  in
  Alcotest.(check (list string))
    "interpreter values"
    [
      value_line "rx_data" (Char.code 'h');
      value_line "rx_data" (Char.code 'i');
      value_line "thr_empty" 1;
      value_line "data_ready" 0;
    ]
    values

(* The CS4236B: indexed registers behind a pre-action, the
   extended-register automaton and the parameterized-register stubs.
   The header checks no template index and no integer set of more than
   16 values, so an index the interpreter refuses is not part of this
   scenario (ROADMAP item 7). *)
let test_c_cs4236b_differential () =
  need_gcc ();
  let chip = Hwsim.Cs4236b.create () in
  let values =
    c_differential
      {
        device = Specs.cs4236b ();
        prefix = "cs";
        bases = [ ("base", 0x530) ];
        attach =
          (fun io ->
            Hwsim.Io_space.attach io ~base:0x530 ~size:4
              (Hwsim.Cs4236b.model chip));
        steps =
          [
            Set ("left_attenuation", Value.Int 21);
            Set ("left_mute", Value.Bool false);
            Device
              (fun () ->
                Alcotest.(check int) "I6" 21 (Hwsim.Cs4236b.indexed_reg chip 6));
            Get "chip_version";
            Device
              (fun () ->
                Alcotest.(check bool) "extended mode entered" true
                  (Hwsim.Cs4236b.extended_mode chip));
            Write_indexed ("I", [ 6 ], 0x3f);
            Device
              (fun () ->
                Alcotest.(check int) "write via template" 0x3f
                  (Hwsim.Cs4236b.indexed_reg chip 6);
                Alcotest.(check bool) "template leaves extended mode" false
                  (Hwsim.Cs4236b.extended_mode chip));
            Read_indexed ("I", [ 6 ]);
          ];
      }
  in
  Alcotest.(check (list string))
    "interpreter values"
    [ value_line "chip_version" Hwsim.Cs4236b.chip_version; value_line "I" 0x3f ]
    values

(* A scenario over RAM: each port gets its own cells, so a read
   returns the last value written at its address. *)
let ram_scenario device prefix steps =
  let bases =
    List.mapi
      (fun k (p : Ir.port) -> (p.p_name, 0x1000 + (0x100 * k)))
      device.Ir.d_ports
  in
  {
    device;
    prefix;
    bases;
    attach =
      (fun io ->
        List.iter
          (fun (name, base) ->
            Hwsim.Io_space.attach io ~base ~size:0x40
              (Hwsim.Model.ram ~name ~size:0x40))
          bases);
    steps;
  }

(* The seven built-ins the other scenarios leave out: serialized
   16-bit counters, conditional serialization, split structures and
   signed fields, each over RAM. The header's field getters of a
   write-only structure read a structure cache that nothing fills, so
   the Permedia2 structures are compared by their requests only
   (ROADMAP item 7). *)
let test_c_other_specs_differential () =
  need_gcc ();
  List.iter
    (fun (sc, expected) ->
      Alcotest.(check (list string))
        (sc.prefix ^ " values") expected (c_differential sc))
    [
      ( ram_scenario (Specs.ne2000 ()) "ne2000"
          [
            Set ("st", Value.Enum "STOP");
            Set ("page_start", Value.Int 0x46);
            Get "page_start";
            Set ("remote_count", Value.Int 1234);
            Get "remote_count";
          ],
        [ value_line "page_start" 0x46; value_line "remote_count" 1234 ] );
      ( ram_scenario (Specs.ide ()) "ide"
          [
            Set ("sector_count", Value.Int 7);
            Get "sector_count";
            Set ("command", Value.Enum "READ_SECTORS");
            Get_struct "ide_status";
            Get "bsy";
          ],
        [ value_line "sector_count" 7; value_line "bsy" 0 ] );
      ( ram_scenario (Specs.piix4_ide ()) "piix4"
          [ Set ("prd_address", Value.Int 0xabcdef); Get "prd_address" ],
        [ value_line "prd_address" 0xabcdef ] );
      ( ram_scenario (Specs.dma8237 ()) "dma"
          [
            Set ("count0", Value.Int 0x1234);
            Set ("mask_bits", Value.Int 0x5);
            Get "mask_bits";
          ],
        [ value_line "mask_bits" 0x5 ] );
      ( ram_scenario (Specs.pic8259 ()) "pic"
          [
            Set_struct
              ( "init",
                [
                  ("ic4", Value.Bool true);
                  ("sngl", Value.Enum "CASCADED");
                  ("adi", Value.Bool false);
                  ("ltim", Value.Enum "EDGE");
                  ("vector_base", Value.Int 4);
                  ("cascade_map", Value.Int 0x04);
                  ("microprocessor", Value.Enum "X8086");
                  ("auto_eoi", Value.Bool false);
                  ("buffer_master", Value.Bool false);
                  ("buffered", Value.Bool false);
                  ("nested", Value.Bool false);
                ] );
            Set ("irq_mask", Value.Int 0xaa);
            Get "irq_mask";
          ],
        [ value_line "irq_mask" 0xaa ] );
      ( ram_scenario (Specs.permedia2 ()) "gfx"
          [
            Set ("fill_color", Value.Int 0x123456);
            Get "fill_color";
            Set_struct
              ("rect_position", [ ("rect_x", Value.Int 10); ("rect_y", Value.Int 20) ]);
            Set_struct
              ( "copy_vector",
                [ ("copy_dx", Value.Int (-3)); ("copy_dy", Value.Int 5) ] );
          ],
        [ value_line "fill_color" 0x123456 ] );
      ( ram_scenario (Specs.mc146818 ()) "rtc"
          [ Set ("seconds_alarm", Value.Int 59); Get "seconds_alarm" ],
        [ value_line "seconds_alarm" 59 ] );
    ]

let () =
  Alcotest.run "codegen"
    [
      ( "text",
        [
          case "structural golden" test_structural_golden;
          case "deterministic" test_deterministic;
          case "all specs generate" test_all_specs_generate;
        ] );
      ( "doc",
        [
          case "text data sheet" test_doc_text;
          case "markdown data sheet" test_doc_markdown;
          case "all specs document" test_doc_all_specs;
        ] );
      ( "gcc",
        [
          case "busmouse stubs run" test_gcc_end_to_end;
          case "all headers compile" test_gcc_all_headers_compile;
          case "busmouse header = interpreter" test_c_busmouse_differential;
          case "i8042 header = interpreter" test_c_i8042_differential;
          case "busmouse header checks = interpreter" test_c_busmouse_checks;
          case "uart header = interpreter" test_c_uart_differential;
          case "cs4236b header = interpreter" test_c_cs4236b_differential;
          case "other specs' headers = interpreter"
            test_c_other_specs_differential;
        ] );
    ]
