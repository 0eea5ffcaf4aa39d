(* Robustness of the compiler front-end and runtime under hostile and
   unusual inputs: fuzzing (the front-end must reject, never crash),
   the post-action feature, wide transfers, recursion guards, and
   diagnostic quality. *)

module Check = Devil_check.Check
module Instance = Devil_runtime.Instance
module Bus = Devil_runtime.Bus
module Value = Devil_ir.Value
module Diagnostics = Devil_syntax.Diagnostics

let case name f = Alcotest.test_case name `Quick f

(* QCheck iteration counts are overridable for deeper soak runs:
   DEVIL_QCHECK_COUNT=10000 dune runtest *)
let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* {1 Fuzzing: no exception ever escapes the front-end} *)

let front_end_total src =
  match Check.compile src with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "front-end raised %s on:@.%S"
        (Printexc.to_string e) src

let prop_fuzz_bytes =
  let gen =
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 127)) (int_bound 200))
  in
  QCheck.Test.make ~name:"random bytes never crash the front-end" ~count:(qcount 250)
    (QCheck.make gen) front_end_total

let prop_fuzz_token_soup =
  (* Syntactically plausible token soup is likelier to reach the deeper
     passes than raw bytes. *)
  let tokens =
    [|
      "device"; "register"; "variable"; "structure"; "private"; "if"; "else";
      "read"; "write"; "mask"; "pre"; "post"; "set"; "volatile"; "trigger";
      "except"; "for"; "block"; "serialized"; "as"; "int"; "signed"; "bool";
      "port"; "bit"; "true"; "false"; "base"; "r"; "v"; "s"; "X"; "NEUTRAL";
      "{"; "}"; "("; ")"; "["; "]"; "@"; ":"; ";"; ","; "#"; "="; "==";
      "!="; "=>"; "<="; "<=>"; ".."; "*"; "0"; "1"; "8"; "31"; "'10.*'";
      "'...'";
    |]
  in
  let gen =
    QCheck.Gen.(
      map
        (fun idxs ->
          "device d (base : bit[8] port @ {0..3}) {"
          ^ String.concat " "
              (List.map (fun i -> tokens.(i mod Array.length tokens)) idxs)
          ^ "}")
        (list_size (int_bound 40) (int_bound 1000)))
  in
  QCheck.Test.make ~name:"token soup never crashes the front-end" ~count:(qcount 250)
    (QCheck.make gen) front_end_total

let prop_fuzz_spec_corruption =
  (* Whole-character corruption of a real specification. *)
  let src = Devil_specs.Specs.busmouse_source in
  let gen = QCheck.Gen.(pair (int_bound (String.length src - 1)) (int_range 32 126)) in
  QCheck.Test.make ~name:"corrupted real specs never crash the front-end"
    ~count:(qcount 250) (QCheck.make gen) (fun (pos, code) ->
      let b = Bytes.of_string src in
      Bytes.set b pos (Char.chr code);
      front_end_total (Bytes.to_string b))

(* {1 Post-actions} *)

let compile_ok src =
  match Check.compile src with
  | Ok d -> d
  | Error diags ->
      Alcotest.fail (Format.asprintf "%a" Diagnostics.pp diags)

let test_post_actions () =
  (* A register whose access must be followed by a strobe write. *)
  let device =
    compile_ok
      "device d (base : bit[8] port @ {0..3}) {
         register strobe = write base @ 1 : bit[8];
         private variable kick = strobe, write trigger : int(8);
         register r = base @ 0, post {kick = 1} : bit[8];
         variable v = r, volatile : int(8);
         register p = base @ 2 : bit[8]; variable vp = p : int(8);
         register q = base @ 3 : bit[8]; variable vq = q : int(8);
       }"
  in
  let log = ref [] in
  let bus =
    let mem = Bus.memory () in
    {
      mem with
      Bus.read =
        (fun ~width ~addr ->
          log := `R addr :: !log;
          mem.Bus.read ~width ~addr);
      write =
        (fun ~width ~addr ~value ->
          log := `W addr :: !log;
          mem.Bus.write ~width ~addr ~value);
    }
  in
  let inst = Instance.create device ~bus ~bases:[ ("base", 0) ] in
  ignore (Instance.get inst "v");
  (match List.rev !log with
  | [ `R 0; `W 1 ] -> ()
  | _ -> Alcotest.fail "post-action must follow the read");
  log := [];
  Instance.set inst "v" (Value.Int 3);
  match List.rev !log with
  | [ `W 0; `W 1 ] -> ()
  | _ -> Alcotest.fail "post-action must follow the write"

(* {1 Recursion guard} *)

let test_unknown_entities_rejected () =
  let device =
    compile_ok
      "device d (base : bit[8] port @ {0..1}) {
         register a = base @ 0 : bit[8]; variable v = a : int(8);
         register b = base @ 1 : bit[8]; variable vb = b : int(8);
       }"
  in
  let inst =
    Instance.create device ~bus:(Bus.memory ()) ~bases:[ ("base", 0) ]
  in
  (match Instance.set_struct inst "nonexistent" [] with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "unknown structure accepted");
  (match Instance.get inst "nope" with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "unknown variable accepted");
  match Instance.read_indexed inst ~template:"T" ~args:[ 0 ] with
  | exception Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "unknown template accepted"

let test_action_depth_guard () =
  (* The language is declare-before-use, so mutual action cycles are
     unwritable — but a variable's own pre-action can reference itself
     (the elaborator registers the name before resolving its
     attributes, which the CS4236B set-action idiom needs). The
     runtime's depth guard must turn the loop into an error. *)
  let device =
    compile_ok
      "device d (base : bit[8] port @ {0..1}) {
         register ra = base @ 0 : bit[8];
         private variable a = ra, pre {a = 0} : int(8);
         register rb = base @ 1, pre {a = 1} : bit[8];
         variable c = rb : int(8);
       }"
  in
  let inst =
    Instance.create device ~bus:(Bus.memory ()) ~bases:[ ("base", 0) ]
  in
  match Instance.set inst "c" (Value.Int 1) with
  | exception Instance.Device_error msg ->
      Alcotest.(check bool) "mentions recursion" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "cyclic pre-actions not detected"

(* {1 Wide transfers} *)

let test_wide_transfers () =
  let device =
    compile_ok
      "device d (base : bit[16] port @ {0..3}) {
         register r = base @ 0 : bit[16];
         variable v = r, trigger, volatile, block : int(16);
         register p = base @ 1 : bit[16]; variable vp = p : int(16);
         register s = base @ 2 : bit[16]; variable vs = s : int(16);
         register q = base @ 3 : bit[16]; variable vq = q : int(16);
       }"
  in
  let widths = ref [] in
  let mem = Bus.memory () in
  let bus =
    {
      mem with
      Bus.read =
        (fun ~width ~addr ->
          widths := width :: !widths;
          mem.Bus.read ~width ~addr);
      write =
        (fun ~width ~addr ~value ->
          widths := width :: !widths;
          mem.Bus.write ~width ~addr ~value);
    }
  in
  let inst = Instance.create device ~bus ~bases:[ ("base", 0) ] in
  Instance.write_wide inst "v" ~scale:2 0xdeadbeef;
  ignore (Instance.read_wide inst "v" ~scale:2);
  Alcotest.(check (list int)) "32-bit accesses" [ 32; 32 ] (List.rev !widths);
  let data = Instance.read_block_wide inst "v" ~scale:2 ~count:3 in
  Alcotest.(check int) "block length" 3 (Array.length data)

(* {1 Diagnostics carry positions} *)

let test_diagnostic_positions () =
  let src =
    "device d (base : bit[8] port @ {0..1}) {\n\
     register a = base @ 0 : bit[8];\n\
     variable v = a[9] : bool;\n\
     register b = base @ 1 : bit[8]; variable vb = b : int(8);\n\
     }"
  in
  match Check.compile ~file:"probe.dil" src with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error diags ->
      let item = List.hd (Diagnostics.items diags) in
      let rendered = Format.asprintf "%a" Diagnostics.pp_item item in
      Alcotest.(check bool) "mentions the file" true
        (String.length rendered > 0
        && String.sub rendered 0 5 = "probe")

(* {1 Unused configuration parameter warning} *)

let test_unused_config_warning () =
  let src =
    "device d (base : bit[8] port @ {0..0}, ghost : bool) {\n\
     register a = base @ 0 : bit[8]; variable v = a : int(8);\n\
     }"
  in
  match Devil_ir.Resolve.elaborate_string ~config:[ ("ghost", Value.Bool true) ] src with
  | Error _ -> Alcotest.fail "spec rejected"
  | Ok device ->
      let diags = Check.check device in
      let warned =
        List.exists
          (fun (i : Diagnostics.item) ->
            i.severity = Diagnostics.Warning
            && String.length i.message > 0)
          (Diagnostics.items diags)
      in
      Alcotest.(check bool) "warning emitted" true warned

(* {1 Fault wrapper transparency and poll termination} *)

(* Random bus traffic: single and block transfers in both directions
   over a small address window. *)
type traffic =
  | T_read of int
  | T_write of int * int
  | T_read_block of int * int
  | T_write_block of int * int list

let traffic_gen =
  QCheck.Gen.(
    let addr = int_bound 31 in
    oneof
      [
        map (fun a -> T_read a) addr;
        map2 (fun a v -> T_write (a, v)) addr (int_bound 0xffff);
        map2 (fun a n -> T_read_block (a, n)) addr (int_range 1 8);
        map2
          (fun a vs -> T_write_block (a, vs))
          addr
          (list_size (int_range 1 8) (int_bound 0xffff));
      ])

let apply_traffic bus ops =
  (* Every value read comes back in the observation list, so two buses
     agree iff the observations agree. *)
  List.concat_map
    (fun op ->
      match op with
      | T_read a -> [ bus.Bus.read ~width:8 ~addr:a ]
      | T_write (a, v) ->
          bus.Bus.write ~width:8 ~addr:a ~value:v;
          []
      | T_read_block (a, n) ->
          let into = Array.make n 0 in
          bus.Bus.read_block ~width:8 ~addr:a ~into;
          Array.to_list into
      | T_write_block (a, vs) ->
          bus.Bus.write_block ~width:8 ~addr:a ~from:(Array.of_list vs);
          [])
    ops

let prop_zero_fault_wrapper_transparent =
  let inert_plans =
    (* Plans that can never mutate anything: identity masks, zero
       probabilities. The wrapper must stay invisible through them. *)
    [
      Devil_runtime.Fault.plan ~label:"inert-stuck" ~first:0 ~last:31
        (Devil_runtime.Fault.Stuck_bits { and_mask = -1; or_mask = 0 });
      Devil_runtime.Fault.plan ~label:"inert-flip" ~first:0 ~last:31
        (Devil_runtime.Fault.Flip_bits { mask = 0xff; probability = 0.0 });
      Devil_runtime.Fault.plan ~label:"inert-transient" ~first:0 ~last:31
        (Devil_runtime.Fault.Transient { probability = 0.0 });
    ]
  in
  QCheck.Test.make
    ~name:"zero-fault wrapper is observationally identical to the raw bus"
    ~count:(qcount 200)
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) traffic_gen))
    (fun ops ->
      let raw = apply_traffic (Bus.memory ()) ops in
      let check plans =
        let inj = Devil_runtime.Fault.wrap ~seed:42 ~plans (Bus.memory ()) in
        let wrapped = apply_traffic (Devil_runtime.Fault.bus inj) ops in
        wrapped = raw && Devil_runtime.Fault.injection_count inj = 0
      in
      check [] && check inert_plans)

let prop_poll_until_terminates =
  QCheck.Test.make
    ~name:"poll_until never evaluates its condition beyond the deadline"
    ~count:(qcount 200)
    (QCheck.make QCheck.Gen.(int_range 1 300))
    (fun deadline ->
      let module Policy = Devil_runtime.Policy in
      let evals = ref 0 in
      (match
         Policy.poll_until ~deadline ~label:"never" (fun () ->
             incr evals;
             false)
       with
      | () -> QCheck.Test.fail_report "poll returned without the condition"
      | exception Policy.Driver_error (Policy.Timeout _) -> ());
      !evals >= 1 && !evals <= deadline)

let prop_poll_until_stops_at_condition =
  QCheck.Test.make
    ~name:"poll_until evaluates exactly once per former loop iteration"
    ~count:(qcount 200)
    (QCheck.make QCheck.Gen.(int_range 1 200))
    (fun k ->
      let module Policy = Devil_runtime.Policy in
      let evals = ref 0 in
      Policy.poll_until ~deadline:200 ~label:"kth" (fun () ->
          incr evals;
          !evals >= k);
      !evals = k)

let () =
  Alcotest.run "robustness"
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fuzz_bytes; prop_fuzz_token_soup; prop_fuzz_spec_corruption ]
      );
      ( "faults",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_zero_fault_wrapper_transparent;
            prop_poll_until_terminates;
            prop_poll_until_stops_at_condition;
          ] );
      ( "features",
        [
          case "post-actions" test_post_actions;
          case "wide transfers" test_wide_transfers;
        ] );
      ( "guards",
        [
          case "unknown entities" test_unknown_entities_rejected;
          case "action recursion depth" test_action_depth_guard;
        ] );
      ( "diagnostics",
        [
          case "positions in messages" test_diagnostic_positions;
          case "unused config parameter" test_unused_config_warning;
        ] );
    ]
