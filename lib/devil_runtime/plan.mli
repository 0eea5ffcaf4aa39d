(** Compiled access plans: the fast-path execution engine behind
    {!Instance} (DESIGN.md §9).

    The paper's central performance argument (§3.2) is that Devil stubs
    are {e compiled}: masks, shifts and addresses are resolved once, at
    specification-compile time, so the per-access path contains only
    the I/O itself plus a handful of bit operations. The interpreting
    runtime in {!Instance} re-derives all of that on every access —
    string-keyed lookups of variables and registers, list traversals of
    chunks and siblings, mask re-scans.

    [compile] performs that resolution once, when the instance is
    created:

    - every register gets a cache {e slot index}, absolute read/write
      addresses and widths, and its mask folded to a
      [(covered, forced)] pair so the wire frame is two bit operations;
    - the trigger-neutral/cached-sibling composition of a register
      rewrite is folded to [(keep, neutral)] masks;
    - every variable gets pre-resolved gather/scatter bit plans over
      register slots, its distinct written registers in chunk order,
      and compiled pre/post/set action and serialization plans in which
      all names are array indices;
    - metric counter names are pre-concatenated per register.

    Semantics are {e identical} to the interpreter — same values, same
    [Device_error] messages, same bus transfers, same {!Trace} events
    in the same order, same {!Metrics} counters — which the
    differential property suite ([test/test_plan_diff.ml], alias
    [@plan]) checks over every bundled specification. The interpreter
    remains available through [Instance.create ~interpret:true] as the
    oracle. *)

module Ir = Devil_ir.Ir
module Value = Devil_ir.Value

exception Device_error of string
(** The same exception as [Instance.Device_error] (the latter is a
    rebinding of this one, so handlers match either). *)

type t

val compile :
  ?debug:bool ->
  label:string ->
  ?ctx:Ctx.t ->
  Ir.device ->
  bus:Bus.t ->
  bases:(string * int) list ->
  t
(** Resolves the whole device once. Raises {!Device_error} when a port
    has no base address (the same check {!Instance.create} performs).
    Resolution failures that the interpreter only reports on access
    (unknown names in malformed hand-built IR, unresolved wildcard
    operands) are preserved as failing thunks raised at the same access
    point with the same message.

    With [ctx], the plan reports to the context's handles: register
    I/O and cache counters and trace events under [label], and with a
    profiler every access runs inside a span named after its
    site — ["<label>/var:<name>:read"], [":write"], [":block_read"],
    [":block_write"], ["<label>/struct:<name>:read"], [":write"],
    ["<label>/template:<tmpl>:read"], [":write"] — and every non-empty
    triggered action inside ["<label>/action:<owner>:<phase>"]. The
    span keys for variables and structures are precomputed at compile
    time; the disabled path costs one branch per access and allocates
    nothing. *)

val device : t -> Ir.device

val ctx : t -> Ctx.t option
(** The context the plan was compiled with. *)

(** {1 Pre-resolved variable handles}

    The string-keyed entry points below still pay one hashtable lookup
    per call to map the name to its compiled plan. A [handle] performs
    that lookup (and the public-interface check) once — the moral
    equivalent of the paper's generated C stub referring to its cache
    slot directly. *)

type handle

val handle : t -> string -> handle
(** Raises {!Device_error} for unknown or private variables. *)

val get_h : t -> handle -> Value.t
val set_h : t -> handle -> Value.t -> unit

(** {1 Entry points}

    Same contracts as the corresponding {!Instance} operations. *)

val get : t -> string -> Value.t
val set : t -> string -> Value.t -> unit
val get_struct : t -> string -> unit
val set_struct : t -> string -> (string * Value.t) list -> unit
val read_wide : t -> string -> scale:int -> int
val write_wide : t -> string -> scale:int -> int -> unit
val read_block_wide : t -> string -> scale:int -> count:int -> int array
val write_block_wide : t -> string -> scale:int -> int array -> unit
val read_indexed : t -> template:string -> args:int list -> int
val write_indexed : t -> template:string -> args:int list -> int -> unit
val invalidate_cache : t -> unit
val cached_raw : t -> string -> int option
