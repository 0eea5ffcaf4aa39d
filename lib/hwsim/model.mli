(** Interface of a simulated device: a register file decoded by offset,
    width and direction, with whatever internal state machine the real
    chip implements behind it. *)

(** A whole block transfer at one offset in one call, as [rep insw] and
    [rep outsw] make it. [read_block] fills [into] in order and
    [write_block] takes [from] in order; each must leave the model, and
    hand back, exactly what [Array.length] calls of [read] or [write]
    at that offset and width would. *)
type block = {
  read_block : width:int -> offset:int -> into:int array -> unit;
  write_block : width:int -> offset:int -> from:int array -> unit;
}

type t = {
  name : string;
  read : width:int -> offset:int -> int;
  write : width:int -> offset:int -> value:int -> unit;
  block : block option;
      (** [None]: the bus moves a block one [read] or [write] per
          element. *)
}

val ram : name:string -> size:int -> t
(** A trivial model backed by per-offset cells, useful in tests. *)
