(** OCaml stub generation: the same stub semantics as the C backend,
    emitted as an OCaml module. The generated module is a functor over
    a bus environment:

    {[
      module Make (Env : sig
        val read : width:int -> addr:int -> int
        val write : width:int -> addr:int -> value:int -> unit
        val read_block : width:int -> addr:int -> into:int array -> unit
        val write_block : width:int -> addr:int -> from:int array -> unit
        val base : string -> int  (* port name -> base address *)
      end) : sig ... end
    ]}

    Getters return raw integers (signed variables sign-extended);
    setters take raw integers and perform the §3.2 range checks
    unconditionally. Enumeration cases are exposed as integer
    constants [const_<variable>_<case>]. The test suite compiles the
    generated module of every bundled spec through dune rules and
    checks that the busmouse and i8042 modules behave exactly like the
    interpreting runtime, I/O operation for I/O operation. *)

module Ir = Devil_ir.Ir

val generate : Ir.device -> string
