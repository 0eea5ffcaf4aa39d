(* The span profiler behind the observability layer (DESIGN.md §11).

   A profiler aggregates hierarchical wall-time spans online, into two
   structures at once:

   - a {e call-path trie}: one node per distinct stack of span keys,
     carrying call count, total (inclusive) and self (exclusive)
     nanoseconds — what the folded-stacks / speedscope exporters walk;
   - a flat {e site table} keyed by span key alone, carrying count,
     total/self time and a log-bucketed latency histogram (the same
     bucket layout as {!Metrics}) for p50/p95/p99 summaries.

   Span keys follow the {!Devil_ir.Sites.site_id} vocabulary prefixed
   with the instance label ("ide/var:sector_count:write",
   "gfx/action:Fill:pre"), plus the non-instance families "bus:read",
   "poll:<label>", "retry:<label>" and the caller-chosen roots
   ("driver:<workload>").

   Like the rest of the layer the profiler is strictly opt-in: every
   instrumented call site matches its [Profile.t option] first and the
   disabled path allocates nothing. Enter/exit themselves allocate only
   on the first visit to a call path or site (Hashtbl growth); the
   frame stack is preallocated and reused.

   Clock: CLOCK_MONOTONIC nanoseconds via bechamel's C stub (the same
   clock the benchmarks use), clamped monotonic defensively. Tests
   substitute a deterministic clock with {!set_clock}. *)

type node = {
  n_name : string;
  mutable n_count : int;
  mutable n_total_ns : int;
  mutable n_self_ns : int;
  n_children : (string, node) Hashtbl.t;
}

type frame = {
  mutable f_node : node;
  mutable f_start : int;
  mutable f_child_ns : int;  (* time attributed to direct children *)
}

type site = {
  mutable s_count : int;
  mutable s_total_ns : int;
  mutable s_self_ns : int;
  mutable s_min_ns : int;
  mutable s_max_ns : int;
  s_buckets : int array;
}

type t = {
  root : node;
  sites : (string, site) Hashtbl.t;
  mutable stack : frame array;
  mutable depth : int;
  mutable clock : unit -> int;
  mutable last_ns : int;  (* last clock sample: the monotonic clamp *)
  mutable unbalanced : int;  (* exits that found their span already closed *)
}

let default_clock () = Int64.to_int (Monotonic_clock.now ())

let mk_node name =
  {
    n_name = name;
    n_count = 0;
    n_total_ns = 0;
    n_self_ns = 0;
    n_children = Hashtbl.create 4;
  }

let create () =
  let root = mk_node "" in
  {
    root;
    sites = Hashtbl.create 64;
    stack =
      Array.init 16 (fun _ -> { f_node = root; f_start = 0; f_child_ns = 0 });
    depth = 0;
    clock = default_clock;
    last_ns = min_int;
    unbalanced = 0;
  }

let set_clock t clock =
  t.clock <- clock;
  t.last_ns <- min_int

let now t =
  let v = t.clock () in
  let v = if v < t.last_ns then t.last_ns else v in
  t.last_ns <- v;
  v

(* {1 Spans} *)

type span = int
(* The stack depth at [enter]; [exit] unwinds back to it, which also
   closes any nested spans an exception blew past. *)

let child_node parent key =
  match Hashtbl.find_opt parent.n_children key with
  | Some n -> n
  | None ->
      let n = mk_node key in
      Hashtbl.add parent.n_children key n;
      n

let grow t =
  let len = Array.length t.stack in
  t.stack <-
    Array.init (2 * len) (fun i ->
        if i < len then t.stack.(i)
        else { f_node = t.root; f_start = 0; f_child_ns = 0 })

let enter t key =
  if t.depth >= Array.length t.stack then grow t;
  let parent = if t.depth = 0 then t.root else t.stack.(t.depth - 1).f_node in
  let f = t.stack.(t.depth) in
  f.f_node <- child_node parent key;
  f.f_start <- now t;
  f.f_child_ns <- 0;
  t.depth <- t.depth + 1;
  t.depth - 1

let site_of t key =
  match Hashtbl.find_opt t.sites key with
  | Some s -> s
  | None ->
      let s =
        {
          s_count = 0;
          s_total_ns = 0;
          s_self_ns = 0;
          s_min_ns = max_int;
          s_max_ns = min_int;
          s_buckets = Array.make Metrics.bucket_count 0;
        }
      in
      Hashtbl.add t.sites key s;
      s

let record_site t key ~total ~self =
  let s = site_of t key in
  s.s_count <- s.s_count + 1;
  s.s_total_ns <- s.s_total_ns + total;
  s.s_self_ns <- s.s_self_ns + self;
  if total < s.s_min_ns then s.s_min_ns <- total;
  if total > s.s_max_ns then s.s_max_ns <- total;
  let b = Metrics.bucket_of total in
  s.s_buckets.(b) <- s.s_buckets.(b) + 1

let exit_top t =
  t.depth <- t.depth - 1;
  let f = t.stack.(t.depth) in
  let total = max 0 (now t - f.f_start) in
  let self = max 0 (total - f.f_child_ns) in
  let n = f.f_node in
  n.n_count <- n.n_count + 1;
  n.n_total_ns <- n.n_total_ns + total;
  n.n_self_ns <- n.n_self_ns + self;
  if t.depth > 0 then begin
    let p = t.stack.(t.depth - 1) in
    p.f_child_ns <- p.f_child_ns + total
  end;
  record_site t n.n_name ~total ~self

let exit t span =
  if span < t.depth then
    while t.depth > span do
      exit_top t
    done
  else t.unbalanced <- t.unbalanced + 1

let span t key f =
  let s = enter t key in
  match f () with
  | v ->
      exit t s;
      v
  | exception e ->
      exit t s;
      raise e

(* A leaf span of known duration under the current stack top, for work
   timed outside the profiler. *)
let leaf t key ns =
  let ns = max 0 ns in
  let parent = if t.depth = 0 then t.root else t.stack.(t.depth - 1).f_node in
  let n = child_node parent key in
  n.n_count <- n.n_count + 1;
  n.n_total_ns <- n.n_total_ns + ns;
  n.n_self_ns <- n.n_self_ns + ns;
  if t.depth > 0 then begin
    let f = t.stack.(t.depth - 1) in
    f.f_child_ns <- f.f_child_ns + ns
  end;
  record_site t key ~total:ns ~self:ns

let live_depth t = t.depth
let unbalanced_exits t = t.unbalanced

(* {1 Aggregates} *)

type site_stats = {
  calls : int;
  total_ns : int;
  self_ns : int;
  min_ns : int;
  max_ns : int;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
}

let site_stats_of s =
  if s.s_count = 0 then
    {
      calls = 0;
      total_ns = 0;
      self_ns = 0;
      min_ns = 0;
      max_ns = 0;
      p50_ns = 0;
      p95_ns = 0;
      p99_ns = 0;
    }
  else
    let pct q =
      Metrics.bucket_percentile ~count:s.s_count ~min_value:s.s_min_ns
        ~max_value:s.s_max_ns s.s_buckets q
    in
    {
      calls = s.s_count;
      total_ns = s.s_total_ns;
      self_ns = s.s_self_ns;
      min_ns = s.s_min_ns;
      max_ns = s.s_max_ns;
      p50_ns = pct 0.50;
      p95_ns = pct 0.95;
      p99_ns = pct 0.99;
    }

let sites t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k s acc -> (k, site_stats_of s) :: acc) t.sites [])

let site t key = Option.map site_stats_of (Hashtbl.find_opt t.sites key)

let node_name n = n.n_name
let node_count n = n.n_count
let node_total_ns n = n.n_total_ns
let node_self_ns n = n.n_self_ns

let node_children n =
  List.sort
    (fun a b -> String.compare a.n_name b.n_name)
    (Hashtbl.fold (fun _ c acc -> c :: acc) n.n_children [])

let roots t = node_children t.root

let total_ns t =
  List.fold_left (fun acc n -> acc + n.n_total_ns) 0 (roots t)

let attributed_ns t =
  let rec sum n =
    Hashtbl.fold (fun _ c acc -> acc + sum c) n.n_children n.n_self_ns
  in
  Hashtbl.fold (fun _ c acc -> acc + sum c) t.root.n_children 0

let reset t =
  Hashtbl.reset t.root.n_children;
  Hashtbl.reset t.sites;
  t.depth <- 0;
  t.last_ns <- min_int;
  t.unbalanced <- 0
