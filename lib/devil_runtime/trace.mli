(** The bounded event trace of the observability layer (DESIGN.md §8).

    A trace is a ring buffer of timestamped (sequence-numbered) events
    into which every instrumented layer of the runtime feeds: the
    {!Bus.observed} wrapper records raw transfers, {!Instance} records
    stub-level events (register access, idempotent-cache hits and
    misses, pre/post/set actions, serialization ordering), {!Policy}
    records poll outcomes and retries, and {!Fault} mirrors its
    injections — one stream, in the order things happened.

    The buffer is bounded: once [capacity] events have been recorded
    the oldest are evicted, so a trace attached to an arbitrarily long
    campaign retains the most recent window at constant space. Eviction
    is observable through {!dropped}.

    Tracing is strictly opt-in. Nothing in the runtime allocates or
    records unless a trace handle was passed in explicitly; the
    disabled path is a single [option] match per hook. *)

(** A generic bounded ring buffer — also used by {!Fault} for its
    injection trace. *)
module Ring : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** Capacities below 1 are clamped to 1. *)

  val add : 'a t -> 'a -> unit
  (** Appends, evicting the oldest item when full. *)

  val to_list : 'a t -> 'a list
  (** Retained items, oldest first. *)

  val iter : ('a -> unit) -> 'a t -> unit
  (** Applies to every retained item, oldest first, in place — no
      intermediate list is built. *)

  val length : 'a t -> int
  val capacity : 'a t -> int

  val total : 'a t -> int
  (** Items ever added, including evicted ones. *)

  val dropped : 'a t -> int
  (** [total - length]: items evicted so far. *)

  val clear : 'a t -> unit
end

type phase = Pre | Post | Set  (** Which action of a register or variable. *)

(** The event vocabulary. [dev] names the instance (the driver label
    given to {!Instance.create}); [owner] names the register or
    variable whose action or serialization clause ran. *)
type kind =
  | Bus_read of { addr : int; width : int; value : int }
  | Bus_write of { addr : int; width : int; value : int }
  | Bus_block_read of { addr : int; width : int; count : int }
  | Bus_block_write of { addr : int; width : int; count : int }
  | Reg_read of { dev : string; reg : string; raw : int }
  | Reg_write of { dev : string; reg : string; raw : int }
      (** Register-level I/O performed by an {!Instance} (the raw value
          cached, i.e. before masking for the wire). *)
  | Var_read of { dev : string; var : string }
      (** A device variable was read through the public API. Emitted
          before the register reads it induces. *)
  | Var_write of { dev : string; var : string; regs : string list }
      (** A device variable write is about to issue its register
          writes; [regs] lists the registers the scatter will touch, in
          issue order. Emitted after the variable's pre-action and the
          compose/scatter phase (so refresh reads and nested
          action-driven writes precede it) and immediately before the
          register-write loop. *)
  | Struct_write of {
      dev : string;
      strct : string;
      fields : string list;
      regs : string list;
    }
      (** The structure analogue of [Var_write]: [fields] are the
          structure's field variables (all of which the rebuilt
          registers may carry), [regs] the registers about to be
          written. *)
  | Cache_hit of { dev : string; reg : string }
  | Cache_miss of { dev : string; reg : string }
      (** Idempotent-register cache outcome on a variable read. *)
  | Cache_invalidated of { dev : string }
      (** {!Instance.invalidate_cache} dropped every cached raw. *)
  | Action of { dev : string; owner : string; phase : phase; assignments : int }
  | Serialized of { dev : string; owner : string; order : string list }
      (** A serialization clause ordered a multi-register write. *)
  | Poll of { label : string; iters : int; ok : bool; rid : int }
      (** A {!Policy} poll completed: how many condition evaluations it
          took and whether it was satisfied ([ok = false] is a
          timeout). [rid] is the queued request the poll ran on behalf
          of (see {!Queue_submitted}), 0 when none. *)
  | Retry of { label : string; attempt : int; reason : string; rid : int }
  | Fault_injected of {
      plan : string;
      addr : int;
      width : int;
      detail : string;
    }
  | Irq_raised of { line : int; dev : string; rid : int }
      (** A device's INT pin asserted PIC line [line] — the {!Sched}
          loop saw the line's source go high (edge, not level: one
          event per assertion, however many ticks it stays high).
          [rid] is [dev]'s in-flight request when the edge was seen
          (the request this interrupt most plausibly answers), 0 when
          the queue was idle. *)
  | Irq_delivered of { line : int; dev : string; rid : int }
      (** The scheduler acknowledged [line] at the interrupt controller
          and is about to run the handler registered for [dev]. *)
  | Queue_submitted of { dev : string; label : string; depth : int; rid : int }
      (** A request entered [dev]'s queue; [depth] counts queued plus
          in-flight requests after the submit. [rid] is the request id
          {!Sched.submit} minted — monotonically increasing per
          scheduler, never reused, and threaded through every event
          this request causes, which is what lets {!Lifecycle}
          reconstruct the request's causal arc end to end. *)
  | Queue_started of { dev : string; label : string; rid : int }
      (** The request left the pending FIFO and its start thunk is
          about to issue the command — queue wait ends, service
          begins. *)
  | Queue_completed of {
      dev : string;
      label : string;
      depth : int;
      ok : bool;
      rid : int;
    }
      (** A request left [dev]'s queue: [ok = true] is a completion
          reported by the driver's interrupt handler, [ok = false] a
          classified failure (timeout or handler-reported error). *)
  | Queue_late of { dev : string; rid : int }
      (** A completion arrived with nothing in flight. [rid > 0] names
          the most recent timed-out request on [dev] — the lost
          interrupt finally showing up; [rid = 0] means no timed-out
          predecessor exists, i.e. the completion is spurious. *)

type event = { seq : int; kind : kind }
(** [seq] increases by one per recorded event and is never reused, so
    gaps at the front of {!events} reveal eviction. *)

type t

val default_capacity : int
(** 1024. *)

val create : ?capacity:int -> unit -> t

val emit : t -> kind -> unit

val subscribe : t -> (event -> unit) -> unit
(** Registers a callback invoked synchronously from {!emit} with each
    event as it is recorded, in subscription order. This is the O(1)
    way to consume a live stream — e.g. the {!Monitor} attaches here —
    as opposed to polling {!events}, which snapshots the whole ring
    (O(capacity)) on every call and misses evicted events between
    polls. Subscribers survive {!clear} and cannot be removed; create
    a fresh trace to drop them. *)

val set_drop_hook : t -> (unit -> unit) -> unit
(** Installs a callback invoked from {!emit} each time recording the
    event evicted the oldest retained one — the O(1) way to surface
    ring evictions as a live counter (the machine layer wires it to
    the [trace.dropped_events] metric) instead of polling {!dropped}.
    One hook per trace (the last installation wins); the default is a
    no-op, so an unhooked trace behaves exactly as before. *)

val events : t -> event list
(** Retained events, oldest first. *)

val length : t -> int
val capacity : t -> int

val recorded : t -> int
(** Events ever emitted, including evicted ones. *)

val dropped : t -> int
(** Events evicted by the bound. *)

val clear : t -> unit
(** Empties the buffer and rewinds the sequence counter. *)

val merge_events : event list -> event list -> event list
(** Stable seq-ordered merge of two event streams (each already
    ascending by [seq], as {!events} yields them): the interleaving by
    sequence number, ties keeping the first operand's events first and
    each stream's internal order intact. *)

val merge : ?capacity:int -> t -> t -> t
(** [merge a b] is a {e fresh} trace holding
    [merge_events (events a) (events b)] in a ring of [capacity]
    (default: the larger of the two inputs'), with its sequence clock
    advanced past both so later {!emit}s cannot collide. Neither input
    is touched; subscribers and drop hooks are not carried over. The
    per-shard fold companion to {!Metrics.merge} / {!Profile.merge}. *)

val summary : t -> string
(** One-line [recorded/retained/evicted] digest, e.g. for tagging a
    fault-campaign trial. *)

val phase_label : phase -> string
val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit
(** Every retained event, one per line. *)
