(** Resolved intermediate representation of a Devil device.

    Elaboration ({!Resolve}) turns the surface AST into this model:
    names are resolved, parameterized registers are kept as templates
    plus their declared instances, masks are parsed, action values are
    classified, and every variable carries its resolved type. The
    static verifier ({!Devil_check.Check}) and the code generators
    work on this representation. *)

module Loc = Devil_syntax.Loc

type access = Read | Write

type port = {
  p_name : string;
  p_width : int;  (** bits per I/O access on this port *)
  p_offsets : int list;  (** valid offsets, ascending *)
  p_index : int;  (** position among the device's port parameters *)
  p_loc : Loc.t;
}

type located_port = { lp_port : string; lp_offset : int }
(** A concrete communication point: port name + offset. *)

(** A value appearing in an action or serialization condition, after
    name resolution. *)
type operand =
  | O_int of int
  | O_bool of bool
  | O_enum of string  (** case of the target variable's enum type *)
  | O_any  (** the ['*'] wildcard: any value is acceptable *)
  | O_var of string  (** current value of another device variable *)
  | O_param of string  (** register-template parameter, e.g. [i] *)

type assignment =
  | Set_var of { target : string; value : operand }
  | Set_struct of { target : string; fields : (string * operand) list }

type action = assignment list

type reg = {
  r_name : string;
  r_size : int;
  r_read : located_port option;
  r_write : located_port option;
  r_mask : Devil_bits.Mask.t;
  r_pre : action;
  r_post : action;
  r_set : action;
  r_from_template : (string * int list) option;
      (** provenance when declared as an instance, e.g. [("I", \[23\])] *)
  r_loc : Loc.t;
}

type template = {
  t_name : string;
  t_params : (string * int list) list;  (** parameter name, legal values *)
  t_size : int;
  t_read : located_port option;
  t_write : located_port option;
  t_mask : Devil_bits.Mask.t;
  t_pre : action;
  t_post : action;
  t_set : action;
  t_loc : Loc.t;
}

type trigger = {
  tr_read : bool;
  tr_write : bool;
  tr_exempt : exempt option;
}
(** The trigger behaviour: an access has a side effect on the device.

    [tr_exempt = Some (Neutral v)] (written [except V]) names a value
    whose write is side-effect free, so the compiler may use it to
    rewrite sibling variables. [Some (Only v)] (written [for V])
    restricts the side effect to writes of exactly [v]. *)

and exempt = Neutral of Value.t | Only of Value.t

type behaviour = {
  b_volatile : bool;  (** reads are not idempotent *)
  b_trigger : trigger option;
  b_block : bool;  (** generate block-transfer stubs *)
}

type chunk = {
  c_reg : string;
  c_ranges : (int * int) list;  (** (hi, lo) pairs, MSB fragment first *)
}

val chunk_width : chunk -> int

type serial_cond = { sc_var : string; sc_negated : bool; sc_value : operand }
type serial_item = { si_cond : serial_cond option; si_reg : string }

type var = {
  v_name : string;
  v_private : bool;
  v_chunks : chunk list;  (** empty for a pure memory cell *)
  v_type : Dtype.t;
  v_behaviour : behaviour;
  v_pre : action;
  v_post : action;
  v_set : action;
  v_serial : serial_item list option;
  v_struct : string option;  (** owning structure, if a field *)
  v_loc : Loc.t;
}

val var_width : var -> int
(** Total bit width: sum of chunk widths, or the type width for a
    memory cell. *)

type strct = {
  s_name : string;
  s_private : bool;
  s_fields : string list;  (** names of the field variables *)
  s_serial : serial_item list option;
  s_loc : Loc.t;
}

type device = {
  d_name : string;
  d_ports : port list;
  d_consts : (string * Dtype.t) list;  (** configuration parameters *)
  d_regs : reg list;
  d_templates : template list;
  d_vars : var list;  (** includes structure fields *)
  d_structs : strct list;
  d_loc : Loc.t;
}

val find_port : device -> string -> port option
val find_reg : device -> string -> reg option
val find_template : device -> string -> template option
val find_var : device -> string -> var option
val find_struct : device -> string -> strct option

val reg_readable : reg -> bool
val reg_writable : reg -> bool

val public_vars : device -> var list
val public_structs : device -> strct list

val vars_of_reg : device -> string -> var list
(** Variables having at least one chunk over the given register. *)

val regs_of_var : device -> var -> reg list
(** Registers referenced by the variable's chunks, in MSB-first chunk
    order, without duplicates. *)
