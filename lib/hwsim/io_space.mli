(** The simulated I/O / memory-mapped address space.

    Devices are attached at base addresses; the exported {!Bus.t}
    dispatches accesses to the owning device and accounts for their
    cost. Single transfers and block-transfer elements are counted
    separately: the performance model charges a per-iteration CPU
    overhead to driver-level loops of single transfers but not to
    [rep]-style block transfers (paper §2.2, §4.3). *)

module Bus = Devil_runtime.Bus

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable block_ops : int;  (** block instructions issued *)
  mutable block_items : int;  (** elements moved by block transfers *)
}

type t

val create : unit -> t

val attach : t -> base:int -> size:int -> Model.t -> unit
(** Claims [base .. base+size-1] for a device. A claim of no address
    ([size <= 0]) or one that overlaps an earlier claim raises
    [Invalid_argument]. *)

val bus : t -> Bus.t
(** The bus over every region attached, before or after this call. An
    access to an address no region claims raises
    [Devil_runtime.Instance.Device_error "bus fault: no device at address
    ADDR"].

    A block transfer decodes its address once. A model with a block op
    ({!Model.block}) then takes the whole block in one call, and must
    behave as the per-element sequence would; every other model gets one
    call per element, in order, all at that one offset and width. Either
    way a model that changes state on each access (a FIFO, an interrupt
    after the last word of a DRQ block) ends up where the single
    transfers would leave it. An empty block decodes nothing, calls no
    model and cannot fault; it still counts as one block instruction.
    Both kinds count in {!stats} as they did: one [block_ops] and
    [Array.length] [block_items] per block. *)

val stats : t -> stats
val reset_stats : t -> unit

val io_ops : t -> int
(** Total I/O operations in the paper's counting: single transfers plus
    block-transfer elements. *)

val single_ops : t -> int
val pp_stats : Format.formatter -> t -> unit
