(** Deterministic fault injection under the bus abstraction.

    A fault injector wraps a {!Bus.t} and perturbs the traffic that
    flows through it according to a set of address-scoped {e plans}.
    Everything is driven by a seedable splittable PRNG, so a campaign
    run is exactly reproducible from its seed: the same driver workload
    over the same plans always sees the same faults at the same
    operations.

    The injector models the hardware-side failure modes the Devil
    runtime's software checks cannot see on a perfect simulator:
    - {e stuck-at} bits (a pin shorted high or low),
    - {e bit flips} on read data (bus noise, marginal timing),
    - {e dropped} and {e duplicated} writes (posted-write bridges
      misbehaving),
    - {e transient bus faults} surfaced as a {!Bus_fault} exception
      (master abort / target abort).

    Every fired fault is counted per plan, so tests and the fault
    campaign can distinguish "nothing fired" from "fired and the
    driver coped", and reported to the [sink] trace as a
    {!Trace.Fault_injected} event and to the [metrics] registry as
    [fault.*] counters — the machine's own stream, where each injection
    sits among the transfers around it. *)

exception Bus_fault of string
(** A transient bus-level failure ({!Bus.Bus_fault} re-exported: the
    injector and the bus raise the same exception). Drivers recover
    from these with the {!Policy} combinators; an escaped [Bus_fault]
    means the driver has no error path for the access that raised
    it. *)

type op = Read | Write

type kind =
  | Stuck_bits of { and_mask : int; or_mask : int }
      (** Values are rewritten to [(v land and_mask) lor or_mask] —
          stuck-at-0 via a cleared [and_mask] bit, stuck-at-1 via a set
          [or_mask] bit. Fires (and counts) only when the rewrite
          changes the value. Deterministic: no probability draw. *)
  | Flip_bits of { mask : int; probability : float }
      (** XORs [mask] into the value with the given per-operation
          probability. *)
  | Drop_write of { probability : float }
      (** The write never reaches the device; the caller cannot tell. *)
  | Duplicate_write of { probability : float }
      (** The write is performed twice — harmless on idempotent
          registers, destructive on triggers and data FIFOs. *)
  | Transient of { probability : float }
      (** The operation raises {!Bus_fault} {e before} touching the
          device, so a retry observes a clean device state. *)

val kind_tag : kind -> string
(** A short name for the kind (["stuck"], ["flip"], ["drop"], ["dup"],
    ["transient"]): it labels fault decisions in traces, schedules and
    battery choices. *)

type plan = {
  label : string;  (** Names the plan in traces and counters. *)
  first : int;  (** First address covered (inclusive). *)
  last : int;  (** Last address covered (inclusive). *)
  ops : op list;  (** Which directions the plan applies to. *)
  kind : kind;
  budget : int option;
      (** Maximum number of injections; [None] is unlimited. A budget
          turns a plan into a burst — e.g. "the first two transfers
          fault, then the device behaves" — which is how recovery is
          demonstrated deterministically. *)
}

val plan :
  ?ops:op list -> ?budget:int -> label:string -> first:int -> last:int ->
  kind -> plan
(** Plan constructor; [ops] defaults to both directions. *)

type t

val wrap :
  ?seed:int ->
  ?sink:Trace.t ->
  ?metrics:Metrics.t ->
  plans:plan list ->
  Bus.t ->
  t
(** [wrap ~seed ~plans bus] builds an injector over [bus]. With an
    empty plan list the wrapped bus is observationally identical to
    [bus]. The default seed is 0. When [sink] is given every injection
    is recorded in that trace as a {!Trace.Fault_injected} event; when
    [metrics] is given
    the [fault.injections] and [fault.<plan>.injections] counters are
    maintained. *)

(** {1 Scheduled (exhaustive-exploration) mode}

    The deterministic counterpart of a plan: instead of a probability
    draw, an {!injection} names the exact covered operation — the
    [at]-th access (0-based) matching its direction and address window
    — that must fault. Probability fields inside the {!kind} are
    ignored; a scheduled decision always takes effect when its ordinal
    is reached. Block transfers count one covered operation per
    element, and a scheduled [Transient] aborts the whole burst before
    the device is touched, exactly like the seeded mode. This is the
    injection surface {!Explore} enumerates. *)

type injection = {
  sx_label : string;  (** Names the decision in traces and counters. *)
  sx_op : op;
  sx_at : int;  (** 0-based ordinal among the covered operations. *)
  sx_first : int;  (** First address covered (inclusive). *)
  sx_last : int;  (** Last address covered (inclusive). *)
  sx_kind : kind;
}

val injection :
  ?label:string -> op:op -> at:int -> first:int -> last:int -> kind ->
  injection
(** Constructor; the default label encodes direction, first address
    and ordinal. Raises [Invalid_argument] on an empty window or a
    negative ordinal. *)

val scheduled :
  ?sink:Trace.t ->
  ?metrics:Metrics.t ->
  injections:injection list ->
  Bus.t ->
  t
(** [scheduled ~injections bus] builds a schedule-driven injector: no
    PRNG, no plans — every listed decision fires exactly once when (and
    only when) its ordinal is reached. An injection whose ordinal lies
    beyond the traffic the workload generates simply never fires
    ({!scheduled_misses}); the explorer uses that, plus {!seen_for}, to
    bound its search to feasible schedules. *)

val scheduled_hits : t -> int
(** Scheduled decisions that took effect so far. *)

val scheduled_misses : t -> injection list
(** Scheduled decisions whose ordinal was never reached. *)

val seen_for : t -> string -> int
(** Covered operations counted so far by the injection(s) with the
    given label (the maximum across duplicates) — the per-site traffic
    horizon: an ordinal at or beyond it can never fire on this
    workload. An injection with [at = max_int] is a pure probe that
    counts without ever firing. *)

val bus : t -> Bus.t
(** The faulty bus to hand to drivers and instances. *)

val operations : t -> int
(** Total bus operations (block elements counted individually) that
    flowed through the injector. *)

val injection_count : t -> int
(** Total faults fired across all plans and scheduled injections. *)

val injections_for : t -> string -> int
(** Faults fired by the plans or injections with the given label. *)
