(** A machine's context: everything the runtime layers report to or
    consult on one machine's behalf.

    Devil binds each stub to one device's ports and register cache
    (paper §2.1); the context does the same for the layers around the
    stubs. {!Instance}, {!Plan}, {!Bus.observed}, {!Sched} and the
    {!Policy} combinators all take it in place of separate handles, so
    a machine's trace, counters, request ids, poll budget and
    exploration decider are values of that machine and of no other.
    Nothing here is module-level state: two contexts share nothing, and
    code holding no context observes nothing.

    The handles are fixed at {!create}. Three cells change as the
    machine runs: the id of the request its scheduler is serving
    ({!serving}) and the poll and retry ordinals its decider has seen
    ({!decide_poll}, {!decide_retry}). *)

(** A branch point the exploration engine can force down its failure
    edge, with its per-kind 0-based ordinal on this machine. Forced
    outcomes stay inside the classified error vocabulary: a forced
    poll is an ordinary timeout (0 condition evaluations), a denied
    retry fails [Degraded]. *)
type decision =
  | Poll_decision of { label : string; ordinal : int }
      (** About to run the poll named [label]; [true] forces an
          immediate timeout. *)
  | Retry_decision of { label : string; attempt : int; ordinal : int }
      (** A transient failure at [attempt] would normally be retried;
          [true] denies the retry. *)

type t = private {
  trace : Trace.t option;
  metrics : Metrics.t option;
  profile : Profile.t option;
  poll_deadline : int;
      (** Ticks a {!Policy} poll may consume when the call names no
          deadline; also a queued request's default timeout. *)
  decider : (decision -> bool) option;
  mutable rid : int;
      (** The queued request being served, 0 outside any request:
          the id {!Policy}'s [Poll] and [Retry] events carry. *)
  mutable poll_points : int;
      (** Poll decision points met, counted only under a decider. *)
  mutable retry_points : int;  (** Likewise for retries. *)
}

val default_poll_deadline : int
(** 1_000_000 ticks. *)

val create :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  ?profile:Profile.t ->
  ?poll_deadline:int ->
  ?decider:(decision -> bool) ->
  unit ->
  t
(** A fresh context; every cell starts at 0. Raises [Invalid_argument]
    when [poll_deadline] is not positive. *)

val serving : t -> int -> ('a -> 'b) -> 'a -> 'b
(** [serving t rid f x] runs [f x] with [rid] as the request being
    served. Afterwards, however [f] ends, the cell reads 0 — even
    inside an enclosing [serving]: once an interrupt handler has
    completed its request, the handler's later events carry rid 0.
    Allocates nothing. *)

val decide_poll : t -> label:string -> bool
(** Consults the decider, if any, about the next poll and advances the
    poll ordinal; [false] without a decider. *)

val decide_retry : t -> label:string -> attempt:int -> bool
(** Likewise for a retry. *)
