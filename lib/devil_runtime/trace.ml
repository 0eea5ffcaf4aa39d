(* The bounded event trace behind the runtime's observability layer. *)

module Ring = struct
  type 'a t = {
    buf : 'a option array;
    capacity : int;
    mutable total : int;  (* items ever added *)
  }

  let create ~capacity =
    let capacity = max 1 capacity in
    { buf = Array.make capacity None; capacity; total = 0 }

  let capacity t = t.capacity
  let total t = t.total
  let length t = min t.total t.capacity
  let dropped t = max 0 (t.total - t.capacity)

  let add t x =
    t.buf.(t.total mod t.capacity) <- Some x;
    t.total <- t.total + 1

  let clear t =
    Array.fill t.buf 0 t.capacity None;
    t.total <- 0

  let to_list t =
    let n = length t in
    let start = t.total - n in
    List.init n (fun i ->
        match t.buf.((start + i) mod t.capacity) with
        | Some x -> x
        | None -> assert false)

  (* Iterates the buffer in place, oldest first, without materialising
     a list — [pp] and other read-only consumers stay allocation-free
     even on large rings. *)
  let iter f t =
    let n = length t in
    let start = t.total - n in
    for i = 0 to n - 1 do
      match t.buf.((start + i) mod t.capacity) with
      | Some x -> f x
      | None -> assert false
    done
end

type phase = Pre | Post | Set

type kind =
  | Bus_read of { addr : int; width : int; value : int }
  | Bus_write of { addr : int; width : int; value : int }
  | Bus_block_read of { addr : int; width : int; count : int }
  | Bus_block_write of { addr : int; width : int; count : int }
  | Reg_read of { dev : string; reg : string; raw : int }
  | Reg_write of { dev : string; reg : string; raw : int }
  | Var_read of { dev : string; var : string }
  | Var_write of { dev : string; var : string; regs : string list }
  | Struct_write of {
      dev : string;
      strct : string;
      fields : string list;
      regs : string list;
    }
  | Cache_hit of { dev : string; reg : string }
  | Cache_miss of { dev : string; reg : string }
  | Cache_invalidated of { dev : string }
  | Action of { dev : string; owner : string; phase : phase; assignments : int }
  | Serialized of { dev : string; owner : string; order : string list }
  | Poll of { label : string; iters : int; ok : bool; rid : int }
  | Retry of { label : string; attempt : int; reason : string; rid : int }
  | Fault_injected of {
      plan : string;
      addr : int;
      width : int;
      detail : string;
    }
  | Irq_raised of { line : int; dev : string; rid : int }
  | Irq_delivered of { line : int; dev : string; rid : int }
  | Queue_submitted of { dev : string; label : string; depth : int; rid : int }
  | Queue_started of { dev : string; label : string; rid : int }
  | Queue_completed of {
      dev : string;
      label : string;
      depth : int;
      ok : bool;
      rid : int;
    }
  | Queue_late of { dev : string; rid : int }

type event = { seq : int; kind : kind }

(* {1 The event store}

   The ring holding a trace's retained events is a struct of arrays,
   not an array of [event] values. Each slot keeps the kind's tag, up
   to three int fields and the sequence number in unscanned [Bytes],
   and up to two string fields in two [string array]s. The strings are
   the instance, register and request labels, which live as long as
   the machine, so storing them promotes nothing. The [kind] an
   emitter builds therefore dies in the minor heap, where an
   array-of-events ring would promote it, its [event] and its [Some]
   box on the next minor collection and leave them for the major GC
   to mark and sweep.

   The three kinds carrying a list built per call ([Var_write],
   [Struct_write], [Serialized]) keep the kind itself in a third
   array. [events], [pp] and the subscribers get [event] values
   decoded on demand.

   The store grows by chunks of [chunk_size] slots as the ring first
   fills, so a large ring costs nothing at [create] and its arrays are
   never copied. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits

type chunk = {
  tags : Bytes.t;  (* one byte per slot *)
  ints : Bytes.t;  (* four 64-bit words per slot: seq, a, b, c *)
  s1 : string array;
  s2 : string array;
  boxed : kind array;  (* the list-carrying kinds, whole *)
}

let empty_chunk =
  { tags = Bytes.empty; ints = Bytes.empty; s1 = [||]; s2 = [||]; boxed = [||] }

let no_kind = Cache_invalidated { dev = "" }

let new_chunk n =
  {
    tags = Bytes.make n '\000';
    ints = Bytes.make (n * 32) '\000';
    s1 = Array.make n "";
    s2 = Array.make n "";
    boxed = Array.make n no_kind;
  }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get_int b w = Int64.to_int (get64 b (w lsl 3))
let set_int b w v = set64 b (w lsl 3) (Int64.of_int v)

type t = {
  capacity : int;
  chunks : chunk array;  (* [empty_chunk] until the ring first reaches it *)
  mutable total : int;  (* events recorded since [create] or [clear] *)
  mutable next_slot : int;  (* [total mod capacity] *)
  mutable next_seq : int;
  mutable subscribers : (event -> unit) list;
  mutable on_drop : unit -> unit;
}

let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  {
    capacity;
    chunks = Array.make (((capacity - 1) lsr chunk_bits) + 1) empty_chunk;
    total = 0;
    next_slot = 0;
    next_seq = 0;
    subscribers = [];
    on_drop = ignore;
  }

let chunk_of t slot =
  let k = slot lsr chunk_bits in
  let ch = Array.unsafe_get t.chunks k in
  if ch != empty_chunk then ch
  else begin
    let ch = new_chunk (min chunk_size (t.capacity - (k lsl chunk_bits))) in
    t.chunks.(k) <- ch;
    ch
  end

let put ch j tag seq a b c =
  Bytes.unsafe_set ch.tags j (Char.unsafe_chr tag);
  let w = j lsl 2 in
  set_int ch.ints w seq;
  set_int ch.ints (w + 1) a;
  set_int ch.ints (w + 2) b;
  set_int ch.ints (w + 3) c

let put_s ch j s1 s2 =
  Array.unsafe_set ch.s1 j s1;
  Array.unsafe_set ch.s2 j s2

let int_of_phase = function Pre -> 0 | Post -> 1 | Set -> 2
let phase_of_int = function 0 -> Pre | 1 -> Post | _ -> Set
let int_of_bool b = if b then 1 else 0

(* Stores [kind] as sequence number [seq] in the next slot. String
   fields a kind does not have are left stale: [decode] never reads
   them, and a stale label is one the ring held anyway. A boxed kind
   is let go when its slot is overwritten, so the ring keeps the lists
   of the events it still holds and no others. *)
let store t seq kind =
  let slot = t.next_slot in
  let ch = chunk_of t slot in
  let j = slot land (chunk_size - 1) in
  if Array.unsafe_get ch.boxed j != no_kind then
    Array.unsafe_set ch.boxed j no_kind;
  (match kind with
  | Bus_read { addr; width; value } -> put ch j 0 seq addr width value
  | Bus_write { addr; width; value } -> put ch j 1 seq addr width value
  | Bus_block_read { addr; width; count } -> put ch j 2 seq addr width count
  | Bus_block_write { addr; width; count } -> put ch j 3 seq addr width count
  | Reg_read { dev; reg; raw } ->
      put ch j 4 seq raw 0 0;
      put_s ch j dev reg
  | Reg_write { dev; reg; raw } ->
      put ch j 5 seq raw 0 0;
      put_s ch j dev reg
  | Var_read { dev; var } ->
      put ch j 6 seq 0 0 0;
      put_s ch j dev var
  | Var_write _ ->
      put ch j 7 seq 0 0 0;
      Array.unsafe_set ch.boxed j kind
  | Struct_write _ ->
      put ch j 8 seq 0 0 0;
      Array.unsafe_set ch.boxed j kind
  | Cache_hit { dev; reg } ->
      put ch j 9 seq 0 0 0;
      put_s ch j dev reg
  | Cache_miss { dev; reg } ->
      put ch j 10 seq 0 0 0;
      put_s ch j dev reg
  | Cache_invalidated { dev } ->
      put ch j 11 seq 0 0 0;
      Array.unsafe_set ch.s1 j dev
  | Action { dev; owner; phase; assignments } ->
      put ch j 12 seq (int_of_phase phase) assignments 0;
      put_s ch j dev owner
  | Serialized _ ->
      put ch j 13 seq 0 0 0;
      Array.unsafe_set ch.boxed j kind
  | Poll { label; iters; ok; rid } ->
      put ch j 14 seq iters (int_of_bool ok) rid;
      Array.unsafe_set ch.s1 j label
  | Retry { label; attempt; reason; rid } ->
      put ch j 15 seq attempt rid 0;
      put_s ch j label reason
  | Fault_injected { plan; addr; width; detail } ->
      put ch j 16 seq addr width 0;
      put_s ch j plan detail
  | Irq_raised { line; dev; rid } ->
      put ch j 17 seq line rid 0;
      Array.unsafe_set ch.s1 j dev
  | Irq_delivered { line; dev; rid } ->
      put ch j 18 seq line rid 0;
      Array.unsafe_set ch.s1 j dev
  | Queue_submitted { dev; label; depth; rid } ->
      put ch j 19 seq depth rid 0;
      put_s ch j dev label
  | Queue_started { dev; label; rid } ->
      put ch j 20 seq rid 0 0;
      put_s ch j dev label
  | Queue_completed { dev; label; depth; ok; rid } ->
      put ch j 21 seq depth (int_of_bool ok) rid;
      put_s ch j dev label
  | Queue_late { dev; rid } ->
      put ch j 22 seq rid 0 0;
      Array.unsafe_set ch.s1 j dev);
  t.total <- t.total + 1;
  t.next_slot <- (if slot + 1 = t.capacity then 0 else slot + 1)

let decode t slot =
  let ch = t.chunks.(slot lsr chunk_bits) in
  let j = slot land (chunk_size - 1) in
  let w = j lsl 2 in
  let a = get_int ch.ints (w + 1)
  and b = get_int ch.ints (w + 2)
  and c = get_int ch.ints (w + 3) in
  let s1 = Array.unsafe_get ch.s1 j and s2 = Array.unsafe_get ch.s2 j in
  let kind =
    match Char.code (Bytes.unsafe_get ch.tags j) with
    | 0 -> Bus_read { addr = a; width = b; value = c }
    | 1 -> Bus_write { addr = a; width = b; value = c }
    | 2 -> Bus_block_read { addr = a; width = b; count = c }
    | 3 -> Bus_block_write { addr = a; width = b; count = c }
    | 4 -> Reg_read { dev = s1; reg = s2; raw = a }
    | 5 -> Reg_write { dev = s1; reg = s2; raw = a }
    | 6 -> Var_read { dev = s1; var = s2 }
    | 9 -> Cache_hit { dev = s1; reg = s2 }
    | 10 -> Cache_miss { dev = s1; reg = s2 }
    | 11 -> Cache_invalidated { dev = s1 }
    | 12 ->
        Action
          { dev = s1; owner = s2; phase = phase_of_int a; assignments = b }
    | 14 -> Poll { label = s1; iters = a; ok = b = 1; rid = c }
    | 15 -> Retry { label = s1; attempt = a; reason = s2; rid = b }
    | 16 -> Fault_injected { plan = s1; addr = a; width = b; detail = s2 }
    | 17 -> Irq_raised { line = a; dev = s1; rid = b }
    | 18 -> Irq_delivered { line = a; dev = s1; rid = b }
    | 19 -> Queue_submitted { dev = s1; label = s2; depth = a; rid = b }
    | 20 -> Queue_started { dev = s1; label = s2; rid = a }
    | 21 ->
        Queue_completed
          { dev = s1; label = s2; depth = a; ok = b = 1; rid = c }
    | 22 -> Queue_late { dev = s1; rid = a }
    | _ -> Array.unsafe_get ch.boxed j
  in
  { seq = get_int ch.ints w; kind }

let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)
let recorded t = t.total
let capacity t = t.capacity

(* The slot of the [i]-th retained event, oldest first. *)
let slot_of t i =
  let s = t.next_slot - length t + i in
  if s < 0 then s + t.capacity else s

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let set_drop_hook t f = t.on_drop <- f

let rec notify e = function
  | [] -> ()
  | f :: rest ->
      f e;
      notify e rest

let emit t kind =
  let seq = t.next_seq in
  let evicting = t.total >= t.capacity in
  store t seq kind;
  t.next_seq <- seq + 1;
  if evicting then t.on_drop ();
  match t.subscribers with
  | [] -> ()
  | subs -> notify { seq; kind } subs

let events t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (decode t (slot_of t i) :: acc)
  in
  build (length t - 1) []

let iter f t =
  for i = 0 to length t - 1 do
    f (decode t (slot_of t i))
  done

let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) empty_chunk;
  t.total <- 0;
  t.next_slot <- 0;
  t.next_seq <- 0

let phase_label = function Pre -> "pre" | Post -> "post" | Set -> "set"

(* Request ids are only printed when present (rid 0 is "not on behalf
   of a queued request"), so pre-scheduler traces render unchanged. *)
let pp_rid fmt rid = if rid > 0 then Format.fprintf fmt " [req #%d]" rid

let pp_kind fmt = function
  | Bus_read { addr; width; value } ->
      Format.fprintf fmt "bus R%d [%#x] -> %#x" width addr value
  | Bus_write { addr; width; value } ->
      Format.fprintf fmt "bus W%d [%#x] <- %#x" width addr value
  | Bus_block_read { addr; width; count } ->
      Format.fprintf fmt "bus R%d block [%#x] x%d" width addr count
  | Bus_block_write { addr; width; count } ->
      Format.fprintf fmt "bus W%d block [%#x] x%d" width addr count
  | Reg_read { dev; reg; raw } ->
      Format.fprintf fmt "%s: reg %s -> %#x" dev reg raw
  | Reg_write { dev; reg; raw } ->
      Format.fprintf fmt "%s: reg %s <- %#x" dev reg raw
  | Var_read { dev; var } -> Format.fprintf fmt "%s: var %s read" dev var
  | Var_write { dev; var; regs } ->
      Format.fprintf fmt "%s: var %s write (regs: %s)" dev var
        (String.concat ", " regs)
  | Struct_write { dev; strct; fields; regs } ->
      Format.fprintf fmt "%s: struct %s write (fields: %s; regs: %s)" dev strct
        (String.concat ", " fields)
        (String.concat ", " regs)
  | Cache_hit { dev; reg } -> Format.fprintf fmt "%s: cache hit on %s" dev reg
  | Cache_miss { dev; reg } -> Format.fprintf fmt "%s: cache miss on %s" dev reg
  | Cache_invalidated { dev } ->
      Format.fprintf fmt "%s: register cache invalidated" dev
  | Action { dev; owner; phase; assignments } ->
      Format.fprintf fmt "%s: %s-action of %s (%d assignment%s)" dev
        (phase_label phase) owner assignments
        (if assignments = 1 then "" else "s")
  | Serialized { dev; owner; order } ->
      Format.fprintf fmt "%s: serialized write of %s: %s" dev owner
        (String.concat " -> " order)
  | Poll { label; iters; ok; rid } ->
      Format.fprintf fmt "poll %s: %d iteration%s, %s%a" label iters
        (if iters = 1 then "" else "s")
        (if ok then "satisfied" else "timed out")
        pp_rid rid
  | Retry { label; attempt; reason; rid } ->
      Format.fprintf fmt "retry %s: attempt %d failed (%s)%a" label attempt
        reason pp_rid rid
  | Fault_injected { plan; addr; width; detail } ->
      Format.fprintf fmt "fault %s: %d-bit access [%#x]: %s" plan width addr
        detail
  | Irq_raised { line; dev; rid } ->
      Format.fprintf fmt "irq %d raised (%s)%a" line dev pp_rid rid
  | Irq_delivered { line; dev; rid } ->
      Format.fprintf fmt "irq %d delivered to %s%a" line dev pp_rid rid
  | Queue_submitted { dev; label; depth; rid } ->
      Format.fprintf fmt "%s: queued %s (depth %d)%a" dev label depth pp_rid
        rid
  | Queue_started { dev; label; rid } ->
      Format.fprintf fmt "%s: started %s%a" dev label pp_rid rid
  | Queue_completed { dev; label; depth; ok; rid } ->
      Format.fprintf fmt "%s: %s %s (depth %d)%a" dev label
        (if ok then "completed" else "failed")
        depth pp_rid rid
  | Queue_late { dev; rid } ->
      if rid > 0 then
        Format.fprintf fmt "%s: late completion for timed-out request #%d" dev
          rid
      else Format.fprintf fmt "%s: spurious completion (no request)" dev

let pp_event fmt e = Format.fprintf fmt "#%d %a" e.seq pp_kind e.kind

let pp fmt t = iter (fun e -> Format.fprintf fmt "%a@." pp_event e) t

let summary t =
  Printf.sprintf "%d events (%d retained, %d evicted)" (recorded t) (length t)
    (dropped t)
