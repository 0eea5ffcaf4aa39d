(** The abstract bus the generated accessors drive.

    A bus knows how to perform single I/O transfers of a given width at
    an absolute address, and block (string / [rep]-style) transfers
    that repeat a transfer at one address. The hardware simulator
    provides the real implementation; {!memory} provides a trivial
    RAM-backed bus for unit tests. *)

exception Bus_fault of string
(** A structured bus-level failure: an access that no device (or cell)
    can answer — the master/target abort of real buses. Re-exported as
    {!Fault.Bus_fault} (they are the same exception), which is also
    what the fault injector raises for transient faults, so
    {!Policy.guarded} classifies both identically. *)

type t = {
  read : width:int -> addr:int -> int;
  write : width:int -> addr:int -> value:int -> unit;
  read_block : width:int -> addr:int -> into:int array -> unit;
      (** Repeated input from one address, filling [into] in order —
          the Pentium [rep insw] idiom of paper §2.2. *)
  write_block : width:int -> addr:int -> from:int array -> unit;
}

val memory : ?size:int -> unit -> t
(** A bus backed by a flat array of 32-bit cells, one cell per address;
    widths only clip the stored value. Reads of untouched cells return
    0. Block transfers loop over the single-transfer operations.
    Accesses outside [\[0, size)] raise {!Bus_fault} — a structured
    error a recovery policy can classify, not a bare
    [Invalid_argument] escaping from [Array]. *)

(** {1 Deterministic record/replay (DESIGN.md §10)}

    [recording] captures every transfer a driver issues together with
    the response the device gave (including raised {!Bus_fault}s), so
    a failing run — a faultcamp trial, a differential-test mismatch —
    becomes a self-contained artifact. [replaying] serves the taped
    responses back without any device behind it, re-raising taped
    faults, and fails loudly with {!Replay_divergence} the moment the
    re-executed driver deviates from the recorded interaction. *)

(** One taped bus transfer: the request plus the response the driver
    observed. [T_fault] is a transfer that raised {!Bus_fault} with
    the given message. *)
type transfer =
  | T_read of { width : int; addr : int; value : int }
  | T_write of { width : int; addr : int; value : int }
  | T_read_block of { width : int; addr : int; values : int array }
  | T_write_block of { width : int; addr : int; values : int array }
  | T_fault of { op : string; width : int; addr : int; message : string }

type tape
(** An ordered recording of transfers. Grows while the bus returned by
    {!recording} is driven; immutable from {!replaying}'s side (a tape
    can be replayed any number of times). *)

exception Replay_divergence of string
(** Raised by a replaying bus when the live run's next request does not
    match the tape: wrong operation, width, address, written value, or
    block length — or the tape is exhausted. The message names the
    transfer index and both sides. *)

val recording : t -> tape * t
(** [recording bus] returns a fresh tape and a wrapper that performs
    each transfer on [bus] and appends it (with its response) to the
    tape. Faulted transfers are taped as [T_fault] before the
    exception propagates. *)

val replaying : tape -> t
(** A bus serving the taped responses back in order, checking each
    request against the tape and raising {!Replay_divergence} on any
    mismatch. Needs no underlying device. *)

val tape_length : tape -> int
val tape_transfers : tape -> transfer list

val tape_of_transfers : transfer list -> tape
(** Rebuilds a tape, e.g. from a file parsed by {!Trace_export}. *)

val pp_transfer : Format.formatter -> transfer -> unit

val observed : ?ctx:Ctx.t -> t -> t
(** [observed ~ctx bus] wraps a bus so that every transfer is recorded
    into the context's trace, counted in its registry (see
    {!Metrics} for the counter vocabulary: single transfers, block
    transactions, block elements and bytes are all counted separately)
    and, with a profiler, timed as a leaf span (["bus:read"],
    ["bus:write"], ["bus:block_read"], ["bus:block_write"]) under
    whatever span is open. With no handle supplied the
    wrapper is the identity — the very same closure record is
    returned, so the disabled path costs nothing and is trivially
    transparent. Faults raised by the underlying bus propagate before
    anything is recorded: the trace holds only transfers that
    completed. *)
