(** Bounded exhaustive exploration of a workload's decision space
    (DESIGN.md §12).

    The engine enumerates {e schedules} — sorted lists of
    [(slot, choice)] decisions over an abstract choice alphabet — and
    runs a caller-supplied closure under each one, depth-first over
    schedule prefixes up to a fault [budget] and a slot [depth]. The
    traversal is prefix-closed (iterative deepening: every schedule
    runs before any of its extensions) and fully deterministic.

    Three prunes bound the walk without sacrificing exhaustiveness
    within the stated bound:

    - {e horizons}: slots a choice's workload traffic never reaches
      are skipped, not run;
    - {e feasibility}: a run in which not every decision fired behaved
      like an already-explored shorter schedule and is not extended;
    - {e state-hash dedup}: subtrees whose end-state fingerprint was
      already seen are not re-extended.

    The domain lives entirely in the [run] closure — see the
    [Excamp] campaign layer for the bus/fault/policy instantiation. *)

type 'c decision = { slot : int; choice : 'c }
(** One scheduled decision: take [choice] at its [slot]-th opportunity
    (0-based; the slot's meaning — covered bus operation, poll
    ordinal — is per-choice and defined by the campaign layer). *)

type 'c schedule = 'c decision list
(** Sorted by strictly increasing slot. *)

type 'c outcome = {
  oc_ok : bool;  (** All invariants held. *)
  oc_detail : string;  (** Verdict or violation description. *)
  oc_fired : int;  (** Decisions that actually took effect. *)
  oc_state : int;  (** End-state fingerprint for subtree dedup. *)
  oc_horizon : 'c -> int;
      (** Slots this run offered per choice. Must not shrink when an
          unrelated later decision is added (prefix horizons bound
          extension slots). *)
}

type 'c violation = { vx_schedule : 'c schedule; vx_detail : string }

type 'c report = {
  rp_runs : int;  (** Workload executions performed. *)
  rp_infeasible : int;  (** Runs where some decision never fired. *)
  rp_deduped : int;  (** Runs not extended: fingerprint already seen. *)
  rp_pruned : int;  (** Candidate schedules skipped by horizons. *)
  rp_distinct : int;  (** Distinct end-state fingerprints. *)
  rp_violations : 'c violation list;  (** In discovery order. *)
}

val explore :
  depth:int ->
  budget:int ->
  choices:'c list ->
  run:('c schedule -> 'c outcome) ->
  ?max_violations:int ->
  ?on_run:('c schedule -> 'c outcome -> unit) ->
  unit ->
  'c report
(** [explore ~depth ~budget ~choices ~run ()] runs the empty schedule,
    then every feasible, non-deduped schedule of up to [budget]
    decisions over slots [0 .. depth-1], in deterministic prefix
    order. Stops early after [max_violations] violations. [on_run]
    observes every execution — progress meters, schedules/s. *)

val shrink :
  run:('c schedule -> 'c outcome) -> 'c schedule -> 'c schedule * int
(** [shrink ~run sched] minimizes a failing schedule while preserving
    failure (with every decision firing): greedy decision dropping to
    a 1-minimal core, then per-decision binary search for the earliest
    failing slot. Returns the minimized schedule and the number of
    candidate runs spent. A schedule that does not fail (or whose
    decisions do not all fire) is returned unchanged. *)

val pp_schedule :
  (Format.formatter -> 'c -> unit) -> Format.formatter -> 'c schedule -> unit
