(** Resolved Devil variable types, and the encoding between abstract
    values and raw register bits.

    Devil variables are strongly typed (paper §2.1): booleans, signed or
    unsigned integers of a given size, ranges or sets of integers, and
    enumerated types whose cases map symbols to bit patterns with a
    direction (read [<=], write [=>], or both [<=>]). *)

type dir = Read | Write | Both

type enum_case = { case_name : string; dir : dir; pattern : Devil_bits.Bitpat.t }

type t =
  | Bool
  | Int of { signed : bool; bits : int }
  | Int_set of { values : int list; bits : int }
      (** [values] sorted ascending; [bits] = width of the encoding *)
  | Enum of enum_case list

val width : t -> int
(** Natural bit width of the type's encoding. *)

val find_case : t -> string -> enum_case option

val readable_case : dir -> bool
val writable_case : dir -> bool

val writable_raws : t -> int list
(** The encodings of an enumerated type's writable cases that have an
    exact pattern, in declaration order; empty for other types. *)

val encode : t -> Value.t -> (int, string) result
(** Value → raw bits, for writing to the device. Rejects values outside
    the type (wrong kind, out of range, read-only enum case). *)

val decode : t -> int -> (Value.t, string) result
(** Raw bits → value, for reads. For enumerated types the first
    readable case whose pattern matches wins. *)

val validate_write : t -> Value.t -> (unit, string) result
(** The §3.2 dynamic check on writes, without computing the encoding. *)

val validate_read_raw : t -> int -> (unit, string) result
(** The §3.2 optional check after reads: does the device's raw value
    belong to the type? *)

val pp : Format.formatter -> t -> unit
