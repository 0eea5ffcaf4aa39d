(* The bounded exhaustive exploration engine (DESIGN.md §12).

   The engine is deliberately ignorant of buses, faults and drivers:
   it enumerates {e schedules} — sorted lists of (decision slot,
   choice) pairs — over an abstract choice alphabet, and delegates
   each run to a caller-supplied closure that executes the workload
   under that schedule and reports what happened. Everything domain
   specific (what a slot means per choice, how a run is judged, how a
   counterexample is reproduced) lives in the campaign layer
   (lib/explore).

   Enumeration is depth-first over schedule {e prefixes}: the empty
   schedule runs first, then every feasible 1-decision schedule, each
   immediately followed by its 2-decision extensions, and so on up to
   the fault budget. Because every extension appends a decision at a
   strictly later slot, the traversal is prefix-closed — iterative
   deepening without re-running shallow levels. Three prunes keep the
   space honest:

   - {e horizons}: each run reports, per choice, how many slots the
     workload actually offered (covered bus operations for an
     injection site, poll/retry branch points for a policy choice).
     Slots at or beyond the horizon cannot fire and are skipped, not
     run.
   - {e feasibility}: a run whose fired-decision count falls short of
     its schedule length behaved like some shorter schedule already
     explored; it is counted but not extended.
   - {e state-hash dedup}: runs are fingerprinted by the caller; a
     fingerprint already seen means the subtree re-converges with an
     explored one and is not extended.

   The horizon contract: a choice's horizon must not shrink when an
   unrelated later decision is added (schedules are explored in prefix
   order, so a prefix's horizon is used to bound its extensions). All
   built-in choice axes satisfy this — injecting a fault can only add
   recovery traffic, never remove already-counted operations. *)

type 'c decision = { slot : int; choice : 'c }
type 'c schedule = 'c decision list

type 'c outcome = {
  oc_ok : bool;  (* all invariants held *)
  oc_detail : string;  (* verdict / violation description *)
  oc_fired : int;  (* decisions that actually took effect *)
  oc_state : int;  (* caller's end-state fingerprint *)
  oc_horizon : 'c -> int;  (* per-choice slot bound observed *)
}

type 'c violation = { vx_schedule : 'c schedule; vx_detail : string }

type 'c report = {
  rp_runs : int;
  rp_infeasible : int;
  rp_deduped : int;
  rp_pruned : int;
  rp_distinct : int;
  rp_violations : 'c violation list;
}

let pp_schedule pp_choice fmt (s : 'c schedule) =
  match s with
  | [] -> Format.pp_print_string fmt "<empty schedule>"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
        (fun fmt d -> Format.fprintf fmt "@%d %a" d.slot pp_choice d.choice)
        fmt s

let explore ~depth ~budget ~choices ~run ?(max_violations = max_int) ?on_run
    () =
  if depth <= 0 then invalid_arg "Explore.explore: depth must be positive";
  if budget < 0 then invalid_arg "Explore.explore: negative budget";
  if choices = [] then invalid_arg "Explore.explore: empty choice alphabet";
  let seen = Hashtbl.create 1024 in
  let runs = ref 0
  and infeasible = ref 0
  and deduped = ref 0
  and pruned = ref 0 in
  let violations = ref [] in
  let record sched (o : 'c outcome) =
    incr runs;
    (match on_run with Some f -> f sched o | None -> ());
    if not o.oc_ok then
      violations := { vx_schedule = sched; vx_detail = o.oc_detail } :: !violations
  in
  let stop () = List.length !violations >= max_violations in
  let rec dfs prefix (out : 'c outcome) =
    if List.length prefix < budget && not (stop ()) then begin
      let next_slot =
        match List.rev prefix with [] -> 0 | d :: _ -> d.slot + 1
      in
      for slot = next_slot to depth - 1 do
        List.iter
          (fun c ->
            if not (stop ()) then
              if slot >= min depth (out.oc_horizon c) then incr pruned
              else
                let sched = prefix @ [ { slot; choice = c } ] in
                let o = run sched in
                record sched o;
                if o.oc_fired < List.length sched then incr infeasible
                else if Hashtbl.mem seen o.oc_state then incr deduped
                else begin
                  Hashtbl.replace seen o.oc_state ();
                  dfs sched o
                end)
          choices
      done
    end
  in
  let base = run [] in
  record [] base;
  Hashtbl.replace seen base.oc_state ();
  dfs [] base;
  {
    rp_runs = !runs;
    rp_infeasible = !infeasible;
    rp_deduped = !deduped;
    rp_pruned = !pruned;
    rp_distinct = Hashtbl.length seen;
    rp_violations = List.rev !violations;
  }

(* {1 Shrinking}

   [shrink ~run sched] minimizes a failing schedule while preserving
   failure. Two passes:

   - {e greedy drop}: try removing each decision in turn; keep any
     removal after which the schedule still fails, restarting until no
     single removal survives — the result is 1-minimal (every decision
     is necessary).
   - {e slot binary search}: for each surviving decision (left to
     right), binary-search the smallest slot — at or after the
     previous decision's slot + 1, preserving sortedness — at which
     the schedule still fails. This finds the true trigger ordinal
     when a late fault and an early fault are interchangeable.

   A candidate counts as failing only when every decision actually
   fired: an infeasible candidate that "fails" would shrink to a
   schedule describing a different run. *)

let shrink ~run sched =
  let attempts = ref 0 in
  let fails s =
    incr attempts;
    let o = run s in
    (not o.oc_ok) && o.oc_fired = List.length s
  in
  if not (fails sched) then (sched, !attempts)
  else begin
    let rec drop s =
      let n = List.length s in
      let rec try_at i =
        if i >= n then s
        else
          let cand = List.filteri (fun j _ -> j <> i) s in
          if fails cand then drop cand else try_at (i + 1)
      in
      try_at 0
    in
    let s = drop sched in
    let arr = Array.of_list s in
    Array.iteri
      (fun i d ->
        let floor = if i = 0 then 0 else arr.(i - 1).slot + 1 in
        let with_slot v =
          Array.to_list
            (Array.mapi (fun j d' -> if j = i then { d' with slot = v } else d') arr)
        in
        let lo = ref floor and hi = ref d.slot in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if fails (with_slot mid) then hi := mid else lo := mid + 1
        done;
        arr.(i) <- { d with slot = !hi })
      arr;
    (Array.to_list arr, !attempts)
  end
