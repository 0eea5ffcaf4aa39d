(** The generated differential battery (DESIGN.md §14).

    Runs {!Opgen} operation sequences on two instances of the same
    device — the compiled plan engine and the IR interpreter — over
    identically seeded memory buses, and demands identical per-op
    outcomes, identical trace streams, identical metrics counters and
    histograms, identical cached raws and zero
    {!Devil_runtime.Monitor} violations. This is the harness-generated
    counterpart of [test/test_plan_diff.ml]: same oracles, but the
    workload comes from the site-aware valid-operation generators, so
    it exercises protocol paths rather than dynamic-check errors. *)

module Ir = Devil_ir.Ir

val label : string
(** Instance label used by every engine the battery builds
    (["harness"]) — the [~dev] to give a {!Devil_runtime.Coverage}. *)

val bases_for : Ir.device -> (string * int) list
(** Non-overlapping base addresses for every port of the device. *)

val seed_bus : seed:int -> Devil_runtime.Bus.t -> unit
(** Pre-seeds a memory bus's low cells from a deterministic PRNG, so
    two engines (or a clean and a faulted run) start from identical
    device state. *)

val explain_trace_divergence :
  Devil_runtime.Trace.t -> Devil_runtime.Trace.t -> string
(** The first event at which the compiled engine's trace (first
    argument) and the interpreter's (second) differ, for a failure
    message. *)

val metrics_divergence :
  Devil_runtime.Metrics.t -> Devil_runtime.Metrics.t -> string option
(** The first counter or histogram on which the compiled engine's
    registry (first argument) and the interpreter's (second) differ, as
    their {!Devil_runtime.Metrics.to_json} lines; [None] when they
    agree. *)

type divergence = { dv_detail : string; dv_op : int option }

val run_diff :
  ?coverage:Devil_runtime.Coverage.t ->
  Ir.device ->
  seed:int ->
  Opgen.op list ->
  divergence option
(** Runs one sequence on both engines; [None] means every oracle
    agreed. [coverage] observes the compiled engine's live trace. *)

val qcheck_test : ?count:int -> name:string -> Ir.device -> QCheck.Test.t
(** The property: for random (seed, generated sequence), {!run_diff}
    finds no divergence. *)

val covered_run :
  ?coverage:Devil_runtime.Coverage.t ->
  Ir.device ->
  seed:int ->
  Opgen.op list ->
  Opgen.outcome list
(** Drives the compiled engine alone (no oracle), feeding [coverage]
    from its live trace — how obligations and bulk sequences accumulate
    register coverage. *)
