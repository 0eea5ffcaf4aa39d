(** Behavioural model of an IDE (ATA) disk: task-file registers, PIO
    sector transfers through the 16-bit data window, and a DMA side
    channel used by the PIIX4 busmaster model.

    Command-block offsets (from the data/command base):
    0 data (16/32-bit), 1 error/features, 2 sector count, 3/4/5 LBA
    low/mid/high, 6 drive/head, 7 status/command. Control-block offset
    0 carries device control (write) and alternate status (read).

    The disk itself is a sparse sector store; sectors never written
    read back as zeroes. *)

type t

val sector_bytes : int  (** 512 *)

val create : ?sectors:int -> unit -> t
(** [sectors] bounds the addressable LBA range (default 65536). *)

val command_model : t -> Model.t
(** Model for the command block (offsets 0..7). A data-port transfer
    moves one 16-bit word below width 32 and two, low first, at 32. The
    PIO buffer holds the current DRQ block as sector bytes; the model's
    block op ({!Model.block}) copies a run of elements straight out of
    it or into it, and refills, flushes and interrupts at the element
    where single transfers would. *)

val control_model : t -> Model.t
(** Model for the control block (offset 0). *)

val irq_pending : t -> bool
(** True when the device has raised its interrupt line (one per DRQ
    block in PIO, one per command completion in DMA). *)

val take_irq : t -> bool
(** Reads and clears the interrupt line. *)

val irq_count : t -> int
(** Total interrupts raised since the last {!reset_irq_count}. *)

val reset_irq_count : t -> unit

(** {1 Back door for tests and the DMA engine} *)

val read_sector : t -> lba:int -> Bytes.t
val write_sector : t -> lba:int -> Bytes.t -> unit

val dma_read_pending : t -> (int * int) option
(** [(lba, count)] of an accepted READ_DMA command, if any. *)

val dma_write_pending : t -> (int * int) option

val dma_complete : t -> unit
(** Signals DMA completion: clears the pending command, sets DRDY and
    raises the interrupt. *)

val set_multiple : t -> int -> unit
(** Sectors per DRQ block for READ/WRITE (hdparm -m style coalescing
    of interrupts). Default 1. *)
