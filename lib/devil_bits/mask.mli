(** Register masks.

    A Devil register mask is written as a bit literal whose leftmost
    character describes the most significant bit:

    - ['.'] — a bit available for device-variable definitions; the
      "no omission" check requires every such bit to be covered;
    - ['0'] / ['1'] — a bit that is irrelevant when read but must be
      written with the given fixed value;
    - ['*'] or ['-'] — an irrelevant bit (ignored when read, written as
      zero, and exempt from the coverage requirement). *)

type bit_class =
  | Covered  (** ['.'] *)
  | Forced of bool  (** ['0'] or ['1'] *)
  | Irrelevant  (** ['*'] or ['-'] *)

type t

val width : t -> int

val all_covered : int -> t
(** The default mask for a register declared without one. *)

val of_string : width:int -> string -> (t, string) result
(** Parses mask text (without the surrounding quotes). Fails when the
    text length differs from [width] or contains an invalid character. *)

val of_string_exn : width:int -> string -> t

val bit : t -> int -> bit_class
(** [bit m i] classifies bit [i] (0 = least significant).
    Raises [Invalid_argument] when out of range. *)

val covered_bits : t -> int list
(** Positions of ['.'] bits, ascending. *)

val covered_value : t -> int
(** Bit set marking the covered (['.']) positions. *)

val forced_value : t -> int
(** Value contributed by the forced bits (['1'] bits set). *)

val forced_positions : t -> int
(** Bit set marking positions that carry a forced value. *)

val writable_frame : t -> value:int -> int
(** [writable_frame m ~value] combines a value for the covered bits with
    the forced bits and zeroes for irrelevant bits: the paper's "proper
    register masking performed as part of the stubs". *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
