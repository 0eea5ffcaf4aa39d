(** Executable device interface compiled from a verified specification.

    An instance binds a device's IR to a {!Bus.t} and absolute base
    addresses, and provides the operations the Devil compiler would
    generate as C stubs: per-variable get/set, structure read/write,
    block transfers, and indexed access to parameterized registers.

    Semantics (paper §2.1):
    - idempotent (default) variables are cached per register; writing
      one variable of a shared register re-uses the cached bits of its
      siblings, or a trigger sibling's neutral value;
    - [volatile] variables are re-read on every access;
    - structure reads perform the I/O once per distinct register and
      fill a cache that field accesses then consult;
    - serialization clauses order multi-register writes, evaluating
      their conditions against the values being written;
    - [pre]/[post]/[set] actions run around each register access;
      [set] runs after writes and updates memory-cell variables.

    Dynamic checks (paper §3.2): value/range validation on writes is
    always performed (it is needed to encode the value); with
    [~debug:true], read results are additionally validated against the
    variable's type, and reading a structure field without a prior
    structure read is an error. *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value

type t

exception Device_error of string
(** Raised by every usage error and failed dynamic check. *)

val create :
  ?debug:bool ->
  ?label:string ->
  ?ctx:Ctx.t ->
  ?interpret:bool ->
  Ir.device ->
  bus:Bus.t ->
  bases:(string * int) list ->
  t
(** [create device ~bus ~bases] binds each port parameter to an
    absolute base address. Every port of the device must be bound.

    By default the device is compiled once into pre-resolved access
    plans ({!Plan}, DESIGN.md §9): absolute addresses, folded masks,
    flattened gather/scatter bit plans, index-resolved actions — the
    per-access path performs no string lookup and no re-derivation.
    [~interpret:true] selects the original IR interpreter instead,
    which re-resolves everything on each access; the two are
    observationally identical (checked by [test/test_plan_diff.ml]),
    making the interpreter the differential oracle for the compiled
    fast path.

    [label] names the instance in observability output (default: the
    device's name); it prefixes the [io.<label>.*], [reg.<label>.*]
    and [cache.<label>.*] counters and tags every stub-level trace
    event. [ctx] is the machine context the instance reports to: with
    its trace and metrics the instance records register-level I/O,
    idempotent-cache hits and misses, pre/post/set action runs and
    serialization orderings; without them (or without a context, the
    default) no instrumentation runs and nothing is allocated.

    With the context's profiler every access runs inside a hierarchical
    {!Profile} span keyed by its site (["<label>/var:<name>:read"],
    ["<label>/struct:<name>:write"],
    ["<label>/action:<owner>:<phase>"], ... — see {!Plan.compile}),
    in both engines, so nested accesses made by actions are attributed
    to their own site under their parent's. *)

val device : t -> Ir.device

val ctx : t -> Ctx.t option
(** The context given to {!create} — what a Devil driver passes to the
    {!Policy} combinators, so its polls and retries report to the
    instance's machine. *)

val get : t -> string -> Value.t
(** Reads a public device variable. *)

val set : t -> string -> Value.t -> unit
(** Writes a public device variable. *)

val get_struct : t -> string -> unit
(** Reads all registers of a structure (each once) into the structure
    cache; field variables are then read with {!get}. *)

val set_struct : t -> string -> (string * Value.t) list -> unit
(** Writes a structure. Fields omitted from the list keep their cached
    value; it is an error to omit a field that was never written. *)

val read_block : t -> string -> count:int -> int array
(** Block input through a [block] variable: raw values, one bus block
    transfer. *)

val write_block : t -> string -> int array -> unit

val read_wide : t -> string -> scale:int -> int
(** Single transfer on a [block] variable's port at [scale] times the
    port width — the processor-specific wide access stub backing
    hdparm-style 32-bit I/O over a 16-bit data register. *)

val write_wide : t -> string -> scale:int -> int -> unit

val read_block_wide : t -> string -> scale:int -> count:int -> int array
(** Block transfer at [scale] times the port width; [count] is in wide
    units. *)

val write_block_wide : t -> string -> scale:int -> int array -> unit

val read_indexed : t -> template:string -> args:int list -> int
(** Raw read of an instance of a parameterized register (e.g. the
    CS4236B's [I(i)]); runs the instantiated pre/post actions. *)

val write_indexed : t -> template:string -> args:int list -> int -> unit

val invalidate_cache : t -> unit
(** Drops every cached register and structure value (e.g. after a
    device reset performed behind the interface's back). *)

val cached_raw : t -> string -> int option
(** Last known raw value of a register, for tests and debugging. *)

type handle
(** A pre-resolved reference to a public variable: the name lookup and
    public-interface check are paid once, at {!handle} time — the moral
    equivalent of the paper's generated C stub referring directly to
    its cache slot. A handle is only valid with the instance that
    created it. *)

val handle : t -> string -> handle
(** Raises {!Device_error} for unknown or private variables. *)

val get_h : t -> handle -> Value.t
val set_h : t -> handle -> Value.t -> unit
