let chip_version = 0xab

type t = {
  mutable ia : int;  (* index register, 0..31 *)
  i_regs : int array;  (* I0..I31 *)
  x_regs : int array;  (* X0..X25 *)
  mutable extended : bool;  (* the xm automaton state *)
  capture : int Queue.t;
  mutable played_rev : int list;
}

let create () =
  let t =
    {
      ia = 0;
      i_regs = Array.make 32 0;
      x_regs = Array.make 26 0;
      extended = false;
      capture = Queue.create ();
      played_rev = [];
    }
  in
  t.x_regs.(25) <- chip_version;
  t

let indexed_reg t i = t.i_regs.(i land 31)
let extended_reg t j = t.x_regs.(j mod 26)
let extended_mode t = t.extended
let queue_pcm t samples = List.iter (fun s -> Queue.push (s land 0xff) t.capture) samples
let played t = List.rev t.played_rev

(* I23 layout per the Devil specification: XA is bits 2 and 7..4
   (MSB-first fragment order: bit 2 is the top bit of the 5-bit index),
   XRAE is bit 3, ACF bit 0. *)
let xa_of_i23 v =
  let bit n = (v lsr n) land 1 in
  (bit 2 lsl 4) lor (bit 7 lsl 3) lor (bit 6 lsl 2) lor (bit 5 lsl 1) lor bit 4

let write_i23 t v =
  t.i_regs.(23) <- v land 0xff;
  if (v lsr 3) land 1 = 1 then t.extended <- true

let read t ~width:_ ~offset =
  match offset with
  | 0 -> t.ia
  | 1 ->
      if t.extended then t.x_regs.(xa_of_i23 t.i_regs.(23) mod 26)
      else t.i_regs.(t.ia)
  | 2 -> if Queue.is_empty t.capture then 0x00 else 0x01 (* data ready *)
  | 3 -> if Queue.is_empty t.capture then 0 else Queue.pop t.capture
  | _ -> 0xff

let write t ~width:_ ~offset ~value =
  let v = value land 0xff in
  match offset with
  | 0 ->
      (* Writing the control register always leaves extended mode. *)
      t.ia <- v land 0x1f;
      t.extended <- false
  | 1 ->
      if t.extended then begin
        let j = xa_of_i23 t.i_regs.(23) mod 26 in
        if j <> 25 then t.x_regs.(j) <- v  (* X25 is read-only *)
      end
      else if t.ia = 23 then write_i23 t v
      else t.i_regs.(t.ia) <- v
  | 2 -> () (* interrupt acknowledge *)
  | 3 -> t.played_rev <- v :: t.played_rev
  | _ -> ()

let model t =
  { Model.name = "cs4236b"; read = read t; write = write t; block = None }
