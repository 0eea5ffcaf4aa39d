(** 16550 UART drivers: line configuration through the DLAB overlay,
    polled transmit/receive, and the modem loopback self-test. *)

module Devil_driver : sig
  type t

  val create : Devil_runtime.Instance.t -> t

  val init : t -> baud:int -> unit
  (** 8N1 at the given rate: programs the divisor through the DLAB
      overlay, restores normal access, enables the FIFOs. *)

  val configured_baud : t -> int

  val send : t -> string -> unit

  val recv : t -> max:int -> string
  (** Non-blocking drain: stops at the first empty-FIFO status. *)

  val recv_blocking : ?deadline:int -> t -> max:int -> string
  (** Waits for each byte under a {!Devil_runtime.Policy} poll deadline
      (in ticks; default: the machine's poll deadline);
      returns what arrived when the deadline expires. *)

  val data_ready : t -> bool
  val set_loopback : t -> bool -> unit

  val reset_fifos : t -> unit
  (** Flushes both FIFOs — the per-attempt recovery step of
      {!self_test}. *)

  val self_test : t -> bool
  (** Loopback self-test: a pattern written comes back verbatim.
      Transient bus faults are retried with bounded attempts, each
      attempt starting from clean FIFOs. *)
end

module Handcrafted : sig
  type t

  val create : Devil_runtime.Bus.t -> base:int -> t
  val init : t -> baud:int -> unit
  val send : t -> string -> unit
  val recv : t -> max:int -> string
  val recv_blocking : ?deadline:int -> t -> max:int -> string
  val data_ready : t -> bool
  val set_loopback : t -> bool -> unit
  val self_test : t -> bool
end
