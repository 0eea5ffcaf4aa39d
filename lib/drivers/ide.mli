(** IDE disk drivers over the task file and the PIIX4 busmaster.

    Transfer modes mirror the paper's Table 2 matrix:
    - PIO with per-word C loops ([`Loop]) or [rep]-style block stubs
      ([`Block]), at 16-bit or 32-bit I/O width;
    - Ultra-DMA through the busmaster engine.

    The hand-crafted driver always moves data with block (string)
    instructions, like the original Linux driver; the Devil driver can
    do either, which is exactly the comparison of paper §4.3.

    A command moves [count] sectors, 1 to 256 (the task file carries
    256 as 0), PIO ones in DRQ blocks of [mult >= 1] sectors. Every entry
    point below, the queued ones included, raises [Invalid_argument]
    before any bus transfer when [count] or [mult] is out of range or a
    write's data is not [count] sectors. *)

type data_path = [ `Loop | `Block ]
type io_width = [ `W16 | `W32 ]

module Devil_driver : sig
  type t

  val create :
    ide:Devil_runtime.Instance.t -> piix4:Devil_runtime.Instance.t -> t

  val identify : t -> string
  (** Model name from the IDENTIFY data. *)

  val set_features : t -> int -> unit
  (** Programs the features register (the pre-command parameter byte;
      0 is the don't-care value for plain PIO transfers). *)

  val read_task_file : t -> int * int
  (** [(sector_count, lba)] read back from the task file — the
      error-locate path: after a failed command the task file still
      addresses the block the device stopped at. *)

  val read_sectors :
    t ->
    lba:int ->
    count:int ->
    mult:int ->
    path:data_path ->
    width:io_width ->
    Bytes.t
  (** [mult] is the device's sectors-per-interrupt setting (hdparm -m);
      the driver services one interrupt per DRQ block of [mult]
      sectors. The caller must have configured the device model with
      the same multiple. *)

  val write_sectors :
    t ->
    lba:int ->
    count:int ->
    mult:int ->
    path:data_path ->
    width:io_width ->
    Bytes.t ->
    unit

  val read_dma : t -> memory:Bytes.t -> lba:int -> count:int -> Bytes.t
  (** [memory] is the busmaster's system memory (the DMA target). *)

  val write_dma : t -> memory:Bytes.t -> lba:int -> count:int -> Bytes.t -> unit
end

module Handcrafted : sig
  type t

  val create :
    Devil_runtime.Bus.t -> cmd_base:int -> ctrl_base:int -> bm_base:int ->
    prd_base:int -> t

  val read_sectors :
    t ->
    lba:int ->
    count:int ->
    mult:int ->
    path:data_path ->
    width:io_width ->
    Bytes.t

  val write_sectors :
    t ->
    lba:int ->
    count:int ->
    mult:int ->
    path:data_path ->
    width:io_width ->
    Bytes.t ->
    unit

  val read_dma : t -> memory:Bytes.t -> lba:int -> count:int -> Bytes.t
  val write_dma : t -> memory:Bytes.t -> lba:int -> count:int -> Bytes.t -> unit
end

(** The queued, interrupt-driven DMA driver over a
    {!Devil_runtime.Sched} loop. Commands are submitted to a per-device
    FIFO; the busmaster-complete interrupt — not a status poll —
    finishes each one, and the next command's setup overlaps the
    completion processing of the previous. The synchronous driver's
    failure taxonomy carries over: transient faults re-issue the
    command up to {!Devil_runtime.Policy.default_attempts} (exhaustion
    is [Degraded]), and a lost interrupt is the same classified
    [Timeout] a poll would raise. *)
module Async : sig
  type t

  val create :
    sched:Devil_runtime.Sched.t ->
    line:int ->
    memory:Bytes.t ->
    ide:Devil_runtime.Instance.t ->
    piix4:Devil_runtime.Instance.t ->
    t
  (** Registers the interrupt handler for [line] on [sched]. [memory]
      is the busmaster's system memory (the DMA target). *)

  val read_dma :
    t ->
    lba:int ->
    count:int ->
    ?on_data:(Bytes.t -> unit) ->
    unit ->
    Devil_runtime.Sched.request
  (** Queues a multi-sector DMA read; [on_data] receives the sectors
      from inside the completion handler. *)

  val write_dma : t -> lba:int -> count:int -> Bytes.t -> Devil_runtime.Sched.request
  (** Queues a multi-sector DMA write; the payload is copied to DMA
      memory when the command reaches the head of the queue (so queued
      writes may overlap safely). *)

  val await : t -> Devil_runtime.Sched.request -> unit
  (** {!Devil_runtime.Sched.await} on this driver's loop. *)

  val drain : t -> unit
  (** Ticks the loop until no request is outstanding. *)

  val request_id : Devil_runtime.Sched.request -> int
  (** The id threading this request's trace events (see
      {!Devil_runtime.Sched.request_id}) — the key for looking its
      lifecycle up in {!Devil_runtime.Lifecycle}. *)
end
