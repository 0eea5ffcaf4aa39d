(** The online protocol monitor (DESIGN.md §10).

    A trace-stream checker that re-derives, from the IR alone, the
    interface disciplines the stub compiler is supposed to uphold, and
    asserts them as events arrive:

    - {b serialization}: after a [Serialized] event announces a write
      order, the writes to the listed registers must occur in that
      relative order (writes to other registers may interleave);
    - {b trigger-neutral}: a register carrying a write-trigger sibling
      with a declared exempt value must be rewritten with the
      sibling's neutral bits — unless the preceding [Var_write] /
      [Struct_write] announced the trigger variable itself as a
      writer;
    - {b volatile-refresh}: rewriting a register with a volatile
      sibling (readable, no read-trigger sibling, sibling not itself
      rewritten) requires a fresh [Reg_read] since the register's last
      write, or stale cached bits get written back.

    Because the rules are derived independently of both runtime
    engines, the monitor serves as a third oracle in the differential
    tests: clean runs must produce zero violations on every spec.

    The monitor is a pure consumer: it never touches the bus and can
    check a live trace ({!attach}, O(1) per event via
    {!Trace.subscribe}) or a persisted one ({!feed_all}). *)

type violation = {
  vl_seq : int;  (** sequence number of the offending event *)
  vl_dev : string;
  vl_rule : string;
      (** ["serialization"], ["trigger-neutral"] or
          ["volatile-refresh"] *)
  vl_detail : string;
}

type t

val create : devices:(string * Devil_ir.Ir.device) list -> t
(** [create ~devices] — one [(label, device)] pair per instance whose
    events should be checked; events for unknown labels (and for
    runtime template instances absent from [d_regs]) are ignored. *)

val feed : t -> Trace.event -> unit
val feed_all : t -> Trace.event list -> unit

val attach : t -> Trace.t -> unit
(** Subscribes {!feed} to a live trace. *)

val violations : t -> violation list
(** Violations so far, in detection order. *)

val violation_count : t -> int

val clear : t -> unit
(** Forgets violations and all per-device stream state (pending
    writers, freshness, serialization expectations). *)

val pp_violation : Format.formatter -> violation -> unit
