(* Tests for the runtime backend (Devil_runtime.Instance): caching,
   trigger-neutral composition, structure reads, serialization order,
   actions, memory cells, block transfers and the section 3.2 dynamic
   checks. Most tests run against a recording bus that logs every
   transfer. *)

module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Check = Devil_check.Check
module Value = Devil_ir.Value

type event = R of int | W of int * int  (* addr, value *)

let recording_bus () =
  let log = ref [] in
  let cells = Hashtbl.create 16 in
  let read ~width:_ ~addr =
    log := R addr :: !log;
    Option.value (Hashtbl.find_opt cells addr) ~default:0
  in
  let write ~width:_ ~addr ~value =
    log := W (addr, value) :: !log;
    Hashtbl.replace cells addr value
  in
  let bus =
    {
      Bus.read;
      write;
      read_block =
        (fun ~width ~addr ~into ->
          Array.iteri (fun i _ -> into.(i) <- read ~width ~addr) into);
      write_block =
        (fun ~width ~addr ~from ->
          Array.iter (fun value -> write ~width ~addr ~value) from);
    }
  in
  (bus, (fun () -> List.rev !log), (fun addr v -> Hashtbl.replace cells addr v))

let compile src =
  match Check.compile src with
  | Ok d -> d
  | Error diags ->
      Alcotest.fail
        (Format.asprintf "bad test spec:@.%a" Devil_syntax.Diagnostics.pp diags)

let make ?(debug = true) ?(interpret = false) src =
  let device = compile ("device d (base : bit[8] port @ {0..3}) {" ^ src ^ "}") in
  let bus, log, poke = recording_bus () in
  (Instance.create ~debug ~interpret device ~bus ~bases:[ ("base", 0) ], log, poke)

let event =
  Alcotest.testable
    (fun fmt -> function
      | R a -> Format.fprintf fmt "R[%d]" a
      | W (a, v) -> Format.fprintf fmt "W[%d]=%#x" a v)
    ( = )

let check_log = Alcotest.(check (list event))

let test_idempotent_caching () =
  let inst, log, _ =
    make
      "register r = base @ 0 : bit[8];
       variable v = r[3..0] : int(4); variable w = r[7..4] : int(4);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  Instance.set inst "v" (Value.Int 3);
  (* First write: sibling w unknown, composed as 0. *)
  Instance.set inst "w" (Value.Int 5);
  (* Second write reuses the cached v bits. *)
  (match Instance.get inst "v" with
  | Value.Int 3 -> ()  (* from cache: no extra read *)
  | v -> Alcotest.fail (Value.to_string v));
  check_log "write compose from cache" [ W (0, 0x03); W (0, 0x53) ] (log ())

let test_volatile_rereads () =
  let inst, log, poke =
    make
      "register r = base @ 0 : bit[8]; variable v = r, volatile : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 7;
  (match Instance.get inst "v" with Value.Int 7 -> () | _ -> Alcotest.fail "first");
  poke 0 9;
  (match Instance.get inst "v" with Value.Int 9 -> () | _ -> Alcotest.fail "second");
  check_log "two device reads" [ R 0; R 0 ] (log ())

let test_trigger_neutral_composition () =
  (* Rewriting a register never replays a sibling's trigger value. *)
  let inst, log, _ =
    make
      "register r = base @ 0 : bit[8];
       variable go = r[0], write trigger except STAY :
         { FIRE => '1', STAY => '0', BUSY <= '1', QUIET <= '0' };
       variable param = r[7..1] : int(7);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  Instance.set inst "go" (Value.Enum "FIRE");
  (* param write must encode STAY (0) for go, not the cached FIRE. *)
  Instance.set inst "param" (Value.Int 0x7f);
  check_log "neutral used" [ W (0, 0x01); W (0, 0xfe) ] (log ())

let test_structure_reads_once () =
  (* The Figure 1 semantics: one I/O read per register, fields from the
     cache; y_high is read only once for dy and buttons. *)
  let inst, log, poke =
    make
      "register h = base @ 0 : bit[8];
       register l = base @ 1 : bit[8];
       structure s = {
         variable a = h[3..0] # l[3..0], volatile : int(8);
         variable b = h[7..4], volatile : int(4);
         variable c = l[7..4], volatile : int(4);
       };
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 0xa5;
  poke 1 0x3c;
  Instance.get_struct inst "s";
  (match Instance.get inst "a" with
  | Value.Int 0x5c -> ()
  | v -> Alcotest.fail ("a = " ^ Value.to_string v));
  (match Instance.get inst "b" with
  | Value.Int 0xa -> ()
  | v -> Alcotest.fail ("b = " ^ Value.to_string v));
  (match Instance.get inst "c" with
  | Value.Int 0x3 -> ()
  | v -> Alcotest.fail ("c = " ^ Value.to_string v));
  check_log "exactly two reads" [ R 0; R 1 ] (log ())

let test_field_read_without_struct_read () =
  let inst, _, _ =
    make
      "register h = base @ 0 : bit[8];
       structure s = { variable a = h, volatile : int(8); };
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  match Instance.get inst "a" with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "stale field read allowed"

let test_pre_action_order () =
  (* The Busmouse pattern: reading x_low writes the index first. *)
  let inst, log, poke =
    make
      "register idx = write base @ 1, mask '1..00000' : bit[8];
       private variable i = idx[6..5] : int(2);
       register x = read base @ 0, pre {i = 2}, mask '....****' : bit[8];
       variable v = x[7..4], volatile : int(4);
       register w0 = write base @ 0 : bit[8]; variable vw = w0 : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 0xb0;
  (match Instance.get inst "v" with
  | Value.Int 0xb -> ()
  | v -> Alcotest.fail (Value.to_string v));
  check_log "index write then data read" [ W (1, 0x80 lor (2 lsl 5)); R 0 ] (log ())

let test_serialized_variable () =
  (* The 8237 pattern: flip-flop reset, then low byte, then high. *)
  let inst, log, _ =
    make
      "register ffr = write base @ 2 : bit[8];
       private variable ff = ffr, write trigger : int(8);
       register lo = base @ 0, pre {ff = *} : bit[8];
       register hi = base @ 0 : bit[8];
       variable x = hi # lo : int(16) serialized as { lo; hi };
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  Instance.set inst "x" (Value.Int 0xbeef);
  check_log "flip-flop, low, high"
    [ W (2, 0); W (0, 0xef); W (0, 0xbe) ]
    (log ())

let test_conditional_serialization () =
  (* The 8259 pattern: the emitted sequence depends on written values. *)
  let src =
    "register a = write base @ 0, mask '......0.' : bit[8];
     register b = write base @ 1 : bit[8];
     register c = write base @ 2 : bit[8];
     structure s = {
       variable f = a[0] : bool;
       variable g = a[7..2] : int(6);
       variable h = b : int(8);
       variable k = c : int(8);
     } serialized as { a; b; if (f == true) c; };
     register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  let inst, log, _ = make src in
  Instance.set_struct inst "s"
    [ ("f", Value.Bool false); ("g", Value.Int 0); ("h", Value.Int 1);
      ("k", Value.Int 2) ];
  check_log "c skipped" [ W (0, 0); W (1, 1) ] (log ());
  let inst2, log2, _ = make src in
  Instance.set_struct inst2 "s"
    [ ("f", Value.Bool true); ("g", Value.Int 0); ("h", Value.Int 1);
      ("k", Value.Int 2) ];
  check_log "c written" [ W (0, 1); W (1, 1); W (2, 2) ] (log2 ())

let test_memory_cells_and_set_actions () =
  let inst, log, _ =
    make
      "private variable xm : bool;
       register r = base @ 0, set {xm = true} : bit[8];
       variable v = r : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  Instance.set inst "v" (Value.Int 5);
  check_log "one write, no I/O for the memory cell" [ W (0, 5) ] (log ())

let test_dynamic_checks () =
  let inst, _, poke =
    make
      "register r = base @ 0 : bit[8];
       variable v = r[1..0] : int{0,1,2};
       variable rest = r[7..2] : int(6);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  (* Write outside the range type: always an error (encode fails). *)
  (match Instance.set inst "v" (Value.Int 3) with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "range violation accepted");
  (* Read check (debug mode): device delivers a value outside the set. *)
  poke 0 0x03;
  match Instance.get inst "v" with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "bad device value accepted in debug mode"

let test_private_refused () =
  let inst, _, _ =
    make
      "register idx = write base @ 1, mask '1..00000' : bit[8];
       private variable i = idx[6..5] : int(2);
       register x = read base @ 0, pre {i = 0}, mask '....****' : bit[8];
       variable v = x[7..4], volatile : int(4);
       register w0 = write base @ 0 : bit[8]; variable vw = w0 : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  match Instance.set inst "i" (Value.Int 1) with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "private variable written from outside"

let test_write_only_get_uses_cache () =
  let inst, log, _ =
    make
      "register r = write base @ 0 : bit[8]; variable v = r : int(8);
       register r0 = read base @ 0 : bit[8]; variable v0 = r0, volatile : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  (match Instance.get inst "v" with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "uncached write-only read allowed");
  Instance.set inst "v" (Value.Int 0x42);
  (match Instance.get inst "v" with
  | Value.Int 0x42 -> ()
  | v -> Alcotest.fail (Value.to_string v));
  check_log "only the write hit the bus" [ W (0, 0x42) ] (log ())

let test_block_transfers () =
  let inst, log, _ =
    make
      "register r = base @ 0 : bit[8];
       variable v = r, trigger, volatile, block : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  Instance.write_block inst "v" [| 1; 2; 3 |];
  let back = Instance.read_block inst "v" ~count:2 in
  Alcotest.(check int) "last written wins" 3 back.(0);
  check_log "five transfers at one address"
    [ W (0, 1); W (0, 2); W (0, 3); R 0; R 0 ]
    (log ())

(* Block stubs need a single chunk spanning its whole register; both
   engines refuse any other block variable before touching the bus. *)
let run_block_needs_whole_register ~interpret () =
  let inst, log, _ =
    make ~interpret
      "register r = base @ 0 : bit[8];
       variable b = r[3..0], block : int(4); variable c = r[7..4] : int(4);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  (match Instance.read_block inst "b" ~count:1 with
  | exception Instance.Device_error msg ->
      Alcotest.(check string) "refused"
        "block variable b must span its whole register" msg
  | _ -> Alcotest.fail "block transfer on part of a register allowed");
  check_log "no transfer" [] (log ())

(* The block stubs are the wide stubs at scale 1 in both engines: one
   bus block transfer at the port width, after the register's pre
   action, the same traffic whichever entry point the driver calls. *)
let width_recording_bus () =
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let bus =
    {
      Bus.read =
        (fun ~width ~addr ->
          note "r%d[%d]" width addr;
          0);
      write = (fun ~width ~addr ~value -> note "w%d[%d]=%d" width addr value);
      read_block =
        (fun ~width ~addr ~into ->
          note "rb%d[%d]x%d" width addr (Array.length into));
      write_block =
        (fun ~width ~addr ~from ->
          note "wb%d[%d]x%d" width addr (Array.length from));
    }
  in
  (bus, fun () -> List.rev !log)

let run_block_is_wide_at_scale_one ~interpret () =
  let device =
    compile
      "device d (base : bit[8] port @ {0..3}) {
         register idx = write base @ 1 : bit[8];
         private variable i = idx : int(8);
         register r = base @ 0, pre {i = 7} : bit[8];
         variable v = r, trigger, volatile, block : int(8);
         register p = base @ 2 : bit[8]; variable vp = p : int(8);
         register q = base @ 3 : bit[8]; variable vq = q : int(8);}"
  in
  let traffic f =
    let bus, log = width_recording_bus () in
    f (Instance.create ~interpret device ~bus ~bases:[ ("base", 0) ]);
    log ()
  in
  let check = Alcotest.(check (list string)) in
  let read_block i = ignore (Instance.read_block i "v" ~count:2) in
  check "read_block: pre action, one 8-bit block" [ "w8[1]=7"; "rb8[0]x2" ]
    (traffic read_block);
  check "read_block_wide at scale 1 is the same" (traffic read_block)
    (traffic (fun i -> ignore (Instance.read_block_wide i "v" ~scale:1 ~count:2)));
  let write_block i = Instance.write_block i "v" [| 1; 2; 3 |] in
  check "write_block: pre action, one 8-bit block" [ "w8[1]=7"; "wb8[0]x3" ]
    (traffic write_block);
  check "write_block_wide at scale 1 is the same" (traffic write_block)
    (traffic (fun i -> Instance.write_block_wide i "v" ~scale:1 [| 1; 2; 3 |]));
  check "scale 2 doubles the width" [ "w8[1]=7"; "rb16[0]x2" ]
    (traffic (fun i -> ignore (Instance.read_block_wide i "v" ~scale:2 ~count:2)))

let test_indexed_access () =
  let inst, log, _ =
    make
      "register idx = write base @ 0 : bit[8];
       private variable ia = idx : int(8);
       register T(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];
       register T3 = T(3);
       variable v = T3, volatile : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  ignore (Instance.read_indexed inst ~template:"T" ~args:[ 7 ]);
  Instance.write_indexed inst ~template:"T" ~args:[ 9 ] 0x55;
  (match Instance.read_indexed inst ~template:"T" ~args:[ 99 ] with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "out-of-range index accepted");
  check_log "index set before each access"
    [ W (0, 7); R 1; W (0, 9); W (1, 0x55) ]
    (log ())

(* Regression: writing an idempotent variable that shares a register
   with a [volatile] sibling must not write the sibling's stale cached
   bits back to the device. When the register can be re-read without
   side effects, the composing write re-reads it first. *)
let run_volatile_sibling_refresh ~interpret () =
  let inst, log, poke =
    make ~interpret
      "register r = base @ 0 : bit[8];
       variable v = r[3..0] : int(4);
       variable s = r[7..4], volatile : int(4);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 0x20;
  Instance.set inst "v" (Value.Int 3);
  (* The device flips the volatile nibble behind the cache. *)
  poke 0 0x93;
  Instance.set inst "v" (Value.Int 5);
  (match Instance.get inst "s" with
  | Value.Int 9 -> ()
  | v -> Alcotest.fail ("volatile nibble clobbered: " ^ Value.to_string v));
  check_log "re-read before each composing write"
    [ R 0; W (0, 0x23); R 0; W (0, 0x95); R 0 ]
    (log ())

(* The refresh must NOT happen when a sibling has a read trigger: the
   re-read would fire the side effect. The stale-cache compose is the
   only safe base there. *)
let run_no_refresh_with_read_trigger ~interpret () =
  let inst, log, poke =
    make ~interpret
      "register r = base @ 0 : bit[8];
       variable v = r[2..0] : int(3);
       variable s = r[5..3], volatile : int(3);
       variable g = r[7..6], read trigger : int(2);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 0xff;
  Instance.set inst "v" (Value.Int 5);
  check_log "no side-effecting re-read" [ W (0, 0x05) ] (log ())

(* A read trigger makes every read reach the device, as [volatile]
   does: the read's side effect is the point of the access. *)
let run_read_trigger_rereads ~interpret () =
  let inst, log, _ =
    make ~interpret
      "register r = base @ 0 : bit[8]; variable g = r, read trigger : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  ignore (Instance.get inst "g");
  ignore (Instance.get inst "g");
  check_log "each read reaches the device" [ R 0; R 0 ] (log ())

let test_invalidate_cache () =
  let inst, log, poke =
    make
      "register r = base @ 0 : bit[8]; variable v = r : int(8);
       register o = base @ 1 : bit[8]; variable vo = o : int(8);
       register p = base @ 2 : bit[8]; variable vp = p : int(8);
       register q = base @ 3 : bit[8]; variable vq = q : int(8);"
  in
  poke 0 1;
  ignore (Instance.get inst "v");
  ignore (Instance.get inst "v");
  Instance.invalidate_cache inst;
  ignore (Instance.get inst "v");
  check_log "re-read after invalidation" [ R 0; R 0 ] (log ())

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "runtime"
    [
      ( "caching",
        [
          case "idempotent variables cached" test_idempotent_caching;
          case "volatile variables re-read" test_volatile_rereads;
          case "trigger neutral composition" test_trigger_neutral_composition;
          case "write-only reads from cache" test_write_only_get_uses_cache;
          case "invalidate_cache" test_invalidate_cache;
          case "volatile sibling refreshed (compiled)"
            (run_volatile_sibling_refresh ~interpret:false);
          case "volatile sibling refreshed (interpreted)"
            (run_volatile_sibling_refresh ~interpret:true);
          case "read trigger forbids refresh (compiled)"
            (run_no_refresh_with_read_trigger ~interpret:false);
          case "read trigger forbids refresh (interpreted)"
            (run_no_refresh_with_read_trigger ~interpret:true);
          case "read trigger re-reads (compiled)"
            (run_read_trigger_rereads ~interpret:false);
          case "read trigger re-reads (interpreted)"
            (run_read_trigger_rereads ~interpret:true);
        ] );
      ( "structures",
        [
          case "registers read once" test_structure_reads_once;
          case "field read needs struct read" test_field_read_without_struct_read;
          case "conditional serialization" test_conditional_serialization;
        ] );
      ( "actions",
        [
          case "pre-action ordering" test_pre_action_order;
          case "serialized variable writes" test_serialized_variable;
          case "memory cells and set actions" test_memory_cells_and_set_actions;
        ] );
      ( "interface",
        [
          case "dynamic checks" test_dynamic_checks;
          case "private variables refused" test_private_refused;
          case "block transfers" test_block_transfers;
          case "block needs a whole register (compiled)"
            (run_block_needs_whole_register ~interpret:false);
          case "block needs a whole register (interpreted)"
            (run_block_needs_whole_register ~interpret:true);
          case "block is the wide stub at scale 1 (compiled)"
            (run_block_is_wide_at_scale_one ~interpret:false);
          case "block is the wide stub at scale 1 (interpreted)"
            (run_block_is_wide_at_scale_one ~interpret:true);
          case "indexed registers" test_indexed_access;
        ] );
    ]
