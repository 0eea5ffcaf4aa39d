type init_state = Ready | Want_icw2 | Want_icw3 | Want_icw4

type t = {
  mutable state : init_state;
  mutable initialized : bool;
  mutable single : bool;
  mutable need_icw4 : bool;
  mutable level_triggered : bool;
  mutable vector_base : int;
  mutable cascade : int;
  mutable icw4 : int;
  mutable imr : int;
  mutable irr : int;
  mutable isr : int;
  mutable read_isr : bool;  (* OCW3 read selection *)
  mutable special_mask : bool;
  mutable poll : bool;
  mutable int_callback : (bool -> unit) option;
  mutable last_int : bool;  (* last INT level the callback observed *)
}

let create () =
  {
    state = Ready;
    initialized = false;
    single = false;
    need_icw4 = false;
    level_triggered = false;
    vector_base = 0;
    cascade = 0;
    icw4 = 0;
    imr = 0xff;
    irr = 0;
    isr = 0;
    read_isr = false;
    special_mask = false;
    poll = false;
    int_callback = None;
    last_int = false;
  }

let initialized t = t.initialized
let vector_base t = t.vector_base
let imr t = t.imr
let irr t = t.irr
let isr t = t.isr
let auto_eoi t = t.icw4 land 0x02 <> 0

let highest_bit v =
  let rec go i = if i > 7 then None else if v land (1 lsl i) <> 0 then Some i else go (i + 1) in
  go 0

let pending t =
  let candidates = t.irr land lnot t.imr in
  match highest_bit candidates with
  | None -> None
  | Some line -> (
      (* A request interrupts only if no higher-priority line is in
         service (fully-nested mode). *)
      match highest_bit t.isr with
      | Some served when served <= line && not t.special_mask -> None
      | _ -> Some line)

let int_asserted t = t.initialized && Option.is_some (pending t)

(* Re-evaluate the INT output after any state change and report edges
   to the attached CPU/scheduler. Crucially this runs after an EOI
   clears an ISR bit: with a higher-priority line leaving service, a
   queued lower-priority request must re-assert INT immediately — real
   8259A priority-resolution behaviour the callback consumer (the
   event loop) depends on to drain wire-OR'd lines. *)
let update_int t =
  let level = int_asserted t in
  if level <> t.last_int then begin
    t.last_int <- level;
    match t.int_callback with Some f -> f level | None -> ()
  end

let set_int_callback t f =
  t.int_callback <- Some f;
  (* Sync the consumer with the current level, whatever it is. *)
  t.last_int <- int_asserted t;
  f t.last_int

let raise_irq t ~line =
  t.irr <- t.irr lor (1 lsl (line land 7));
  update_int t

let lower_irq t ~line =
  t.irr <- t.irr land lnot (1 lsl (line land 7));
  update_int t

let inta t =
  let result =
    match pending t with
    | None -> None
    | Some line ->
        t.irr <- t.irr land lnot (1 lsl line);
        if not (auto_eoi t) then t.isr <- t.isr lor (1 lsl line);
        Some (t.vector_base + line)
  in
  update_int t;
  result

let start_init t v =
  t.state <- Want_icw2;
  t.initialized <- false;
  t.single <- v land 0x02 <> 0;
  t.need_icw4 <- v land 0x01 <> 0;
  t.level_triggered <- v land 0x08 <> 0;
  t.imr <- 0;
  t.irr <- 0;
  t.isr <- 0;
  t.icw4 <- 0;
  t.read_isr <- false

let finish_init t = begin
  t.state <- Ready;
  t.initialized <- true
end

let write_ocw2 t v =
  let cmd = (v lsr 5) land 0x7 in
  let level = v land 0x7 in
  match cmd with
  | 0x1 ->
      (* non-specific EOI: clear the highest in-service bit *)
      (match highest_bit t.isr with
      | Some line -> t.isr <- t.isr land lnot (1 lsl line)
      | None -> ())
  | 0x3 -> t.isr <- t.isr land lnot (1 lsl level) (* specific EOI *)
  | _ -> ()

let write_ocw3 t v =
  (match v land 0x3 with
  | 0x2 -> t.read_isr <- false
  | 0x3 -> t.read_isr <- true
  | _ -> ());
  if v land 0x4 <> 0 then t.poll <- true;
  match (v lsr 5) land 0x3 with
  | 0x2 -> t.special_mask <- false
  | 0x3 -> t.special_mask <- true
  | _ -> ()

let write t ~width:_ ~offset ~value =
  let v = value land 0xff in
  (match offset with
  | 0 ->
      if v land 0x10 <> 0 then start_init t v
      else if v land 0x08 <> 0 then write_ocw3 t v
      else write_ocw2 t v
  | 1 -> (
      match t.state with
      | Want_icw2 ->
          t.vector_base <- v land 0xf8;
          if not t.single then t.state <- Want_icw3
          else if t.need_icw4 then t.state <- Want_icw4
          else finish_init t
      | Want_icw3 ->
          t.cascade <- v;
          if t.need_icw4 then t.state <- Want_icw4 else finish_init t
      | Want_icw4 ->
          t.icw4 <- v;
          finish_init t
      | Ready -> t.imr <- v)
  | _ -> ());
  update_int t

let read t ~width:_ ~offset =
  match offset with
  | 0 ->
      if t.poll then begin
        t.poll <- false;
        (* [inta] itself re-evaluates INT. *)
        match inta t with
        | Some vector -> 0x80 lor (vector - t.vector_base)
        | None -> 0
      end
      else if t.read_isr then t.isr
      else t.irr
  | 1 -> t.imr
  | _ -> 0xff

let model t =
  { Model.name = "pic8259"; read = read t; write = write t; block = None }
