(* The deterministic-tick time-series sampler (DESIGN.md §16).

   A telemetry handle watches one {!Metrics.t} and, on every explicit
   [tick], appends one sample per metric to a bounded per-metric ring:

   - counters: the cumulative total plus the delta since the previous
     tick — the windowed rate;
   - histograms: the bucket-array delta since the previous tick,
     summarised to windowed p50/p95/p99 with the same estimator as the
     lifetime percentiles — so "p99 over the last tick" and "p99 since
     boot" are both available and clearly distinct.

   The clock is the tick counter itself — the same discipline as
   {!Lifecycle.of_events} using trace sequence numbers — so a replayed
   run that ticks at the same points produces a byte-identical series;
   nothing here reads wall time.

   Rings evict oldest-first at constant space like {!Trace}'s;
   {!evictions} totals the drops across every series so dashboards can
   shout when the window is shorter than it looks.

   Strictly opt-in like the rest of the layer: a machine holds a
   [Telemetry.t option] and the disabled path is one option match —
   nothing is sampled, nothing allocates. *)

type counter_point = { at : int; total : int; delta : int }

type hist_point = {
  h_at : int;
  h_count : int;
  h_sum : int;
  h_p50 : int;
  h_p95 : int;
  h_p99 : int;
}

type health_point = { hp_at : int; hp_verdict : string; hp_summary : string }

type cseries = {
  c_ring : counter_point Trace.Ring.t;
  mutable c_last : int;
}

type hseries = {
  hs_ring : hist_point Trace.Ring.t;
  hs_prev : int array;
  mutable hs_prev_count : int;
  mutable hs_prev_sum : int;
}

type t = {
  metrics : Metrics.t;
  capacity : int;
  mutable ticks : int;
  counters : (string, cseries) Hashtbl.t;
  hists : (string, hseries) Hashtbl.t;
  health_ring : health_point Trace.Ring.t;
}

let default_capacity = 64

let create ?(capacity = default_capacity) metrics =
  let capacity = max 1 capacity in
  {
    metrics;
    capacity;
    ticks = 0;
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
    health_ring = Trace.Ring.create ~capacity;
  }

let metrics t = t.metrics
let ticks t = t.ticks
let capacity t = t.capacity

(* Windowed percentiles come from the bucket delta alone, so the
   min/max clamp uses bucket bounds: the window's samples all lie
   between the lowest non-empty delta bucket's lower edge and the
   highest one's upper edge. *)
let window_percentile ~count deltas q =
  let n = Array.length deltas in
  let lo = ref (-1) and hi = ref (-1) in
  for i = 0 to n - 1 do
    if deltas.(i) > 0 then begin
      if !lo < 0 then lo := i;
      hi := i
    end
  done;
  if count <= 0 || !lo < 0 then 0
  else
    let min_value = if !lo = 0 then 0 else Metrics.bucket_upper (!lo - 1) + 1 in
    let max_value = Metrics.bucket_upper !hi in
    Metrics.bucket_percentile ~count ~min_value ~max_value deltas q

let cseries t name =
  match Hashtbl.find_opt t.counters name with
  | Some s -> s
  | None ->
      let s = { c_ring = Trace.Ring.create ~capacity:t.capacity; c_last = 0 } in
      Hashtbl.replace t.counters name s;
      s

let hseries t name =
  match Hashtbl.find_opt t.hists name with
  | Some s -> s
  | None ->
      let s =
        {
          hs_ring = Trace.Ring.create ~capacity:t.capacity;
          hs_prev = Array.make Metrics.bucket_count 0;
          hs_prev_count = 0;
          hs_prev_sum = 0;
        }
      in
      Hashtbl.replace t.hists name s;
      s

(* The registry is walked in place: no sorted copy, no lifetime
   snapshot. Each series is found by name, so the walk's order does not
   matter. [hs_prev] becomes the window's bucket delta for the
   percentiles, then the live buckets again. *)
let tick ?health t =
  t.ticks <- t.ticks + 1;
  let at = t.ticks in
  Metrics.iter_counters t.metrics (fun name total ->
      let s = cseries t name in
      Trace.Ring.add s.c_ring { at; total; delta = total - s.c_last };
      s.c_last <- total);
  Metrics.iter_histograms t.metrics (fun name ~count ~sum buckets ->
      let s = hseries t name in
      let deltas = s.hs_prev in
      for i = 0 to Metrics.bucket_count - 1 do
        deltas.(i) <- buckets.(i) - deltas.(i)
      done;
      let wcount = count - s.hs_prev_count in
      Trace.Ring.add s.hs_ring
        {
          h_at = at;
          h_count = wcount;
          h_sum = sum - s.hs_prev_sum;
          h_p50 = window_percentile ~count:wcount deltas 0.50;
          h_p95 = window_percentile ~count:wcount deltas 0.95;
          h_p99 = window_percentile ~count:wcount deltas 0.99;
        };
      Array.blit buckets 0 s.hs_prev 0 Metrics.bucket_count;
      s.hs_prev_count <- count;
      s.hs_prev_sum <- sum);
  match health with
  | None -> ()
  | Some (report : Health.report) ->
      Trace.Ring.add t.health_ring
        {
          hp_at = at;
          hp_verdict = Health.verdict_label report.Health.verdict;
          hp_summary = Health.summary report;
        }

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let counter_names t = sorted_keys t.counters
let hist_names t = sorted_keys t.hists

let counter_series t name =
  match Hashtbl.find_opt t.counters name with
  | Some s -> Trace.Ring.to_list s.c_ring
  | None -> []

let hist_series t name =
  match Hashtbl.find_opt t.hists name with
  | Some s -> Trace.Ring.to_list s.hs_ring
  | None -> []

let health_series t = Trace.Ring.to_list t.health_ring

let evictions t =
  let series =
    Hashtbl.fold (fun _ s acc -> acc + Trace.Ring.dropped s.c_ring) t.counters 0
    + Hashtbl.fold
        (fun _ s acc -> acc + Trace.Ring.dropped s.hs_ring)
        t.hists 0
  in
  series + Trace.Ring.dropped t.health_ring
