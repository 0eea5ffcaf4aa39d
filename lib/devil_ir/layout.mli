(** The bit-level facts of a verified device (DESIGN.md §9): where each
    variable's bits sit in its registers, which bits a register rewrite
    must force to a trigger-neutral value, and which registers a write
    reaches, in which order (paper §2.1, §3.2).

    [Plan] and the C generator derive their stubs from these facts.
    The interpreter and the protocol monitor keep their own
    derivations on purpose: they are the oracles [Plan] and the C
    header are checked against, so a fault here shows up as a
    divergence instead of being shared by the check. *)

type piece = {
  reg : string;  (** register holding the piece *)
  lo : int;  (** lowest register bit of the piece *)
  width : int;
  shift : int;  (** position of the piece's lowest bit in the value *)
}
(** One bit range of a variable's chunks. *)

val pieces : Ir.var -> piece list
(** One entry per chunk range, most significant first; empty for a
    memory cell. *)

val field_mask : piece -> int
(** The register bits the piece occupies. *)

val neutral_raw : Ir.var -> int option
(** The raw value a sibling rewrite writes into a write-trigger
    variable: its [except] value, or for [for V] any value other than
    [V]. [None] when rewriting the variable has no side effect to
    avoid. *)

val neutral_fields : Ir.device -> Ir.reg -> (int * int) list
(** For each variable of the register with a {!neutral_raw}, in
    declaration order: the register bits it clears and the bits it
    sets when the register is rebuilt for a sibling write. *)

val fresh : Ir.var -> bool
(** Reads must reach the device: the variable is volatile or has a
    read trigger. *)

val write_order :
  Ir.device ->
  Ir.reg list ->
  Ir.serial_item list option ->
  (Ir.serial_cond option * Ir.reg) list
(** The register writes of a variable or structure whose registers are
    the given list: those registers in order, or, under a
    serialization clause, its items with their conditions. *)

val struct_regs : Ir.device -> Ir.strct -> Ir.reg list
(** The registers of a structure's fields, field by field, without
    duplicates. *)

val block_reg : Ir.device -> Ir.var -> (Ir.reg, string) result
(** The register a [block] variable transfers through: a single chunk
    spanning the whole register. The error is the reason the variable
    has no block stubs. *)
