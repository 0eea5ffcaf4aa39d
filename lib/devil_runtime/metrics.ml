(* The counter/histogram registry behind the observability layer. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;  (* power-of-two buckets: bucket i holds v with
                           2^(i-1) <= v < 2^i (bucket 0 holds v <= 0). *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; hists = Hashtbl.create 16 }

(* The cell behind a name, registered at zero on first sight. The
   name-based calls and the handles below both go through here, so a
   name lists once however it was first reached. *)
let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let incr t ?(by = 1) name =
  let r = counter_cell t name in
  r := !r + by

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let bucket_count = 24

let bucket_of v =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  if v <= 0 then 0 else min (bucket_count - 1) (bits v 0)

let hist_cell t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h =
        {
          h_count = 0;
          h_sum = 0;
          h_min = max_int;
          h_max = min_int;
          buckets = Array.make bucket_count 0;
        }
      in
      Hashtbl.replace t.hists name h;
      h

let record h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let observe t name v = record (hist_cell t name) v

(* {1 Handles}

   A handle names one metric of one registry and resolves the name on
   its first use, so the hot paths neither hash nor compare strings,
   and a handle that never fires registers nothing. Cells are never
   dropped (there is no reset), so a resolved handle stays valid for
   the registry's life. *)

module Counter = struct
  type registry = t
  type t = { reg : registry; name : string; mutable cell : int ref option }

  let make reg name = { reg; name; cell = None }

  let add c by =
    match c.cell with
    | Some r -> r := !r + by
    | None ->
        let r = counter_cell c.reg c.name in
        c.cell <- Some r;
        r := !r + by

  let incr c = add c 1
end

module Histogram = struct
  type registry = t
  type nonrec t = { reg : registry; name : string; mutable cell : hist option }

  let make reg name = { reg; name; cell = None }

  let observe h v =
    match h.cell with
    | Some c -> record c v
    | None ->
        let c = hist_cell h.reg h.name in
        h.cell <- Some c;
        record c v
end

(* {1 Percentiles}

   The buckets are power-of-two wide, so a quantile can only be located
   to its bucket; we report the bucket's upper bound (a conservative
   "no more than" estimate), clamped into the histogram's observed
   [min, max] so single-sample and narrow registries come out exact. *)

let bucket_upper i = if i <= 0 then 0 else (1 lsl i) - 1

let bucket_percentile ~count ~min_value ~max_value buckets q =
  if count <= 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let n = Array.length buckets in
    let rec locate i cum =
      if i >= n then n - 1
      else
        let cum = cum + buckets.(i) in
        if cum >= rank then i else locate (i + 1) cum
    in
    let est = bucket_upper (locate 0 0) in
    let est = if est < min_value then min_value else est in
    if est > max_value then max_value else est
  end

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
}

let snapshot h =
  if h.h_count = 0 then
    { count = 0; sum = 0; min = 0; max = 0; mean = 0.0; p50 = 0; p95 = 0;
      p99 = 0 }
  else
    let pct q =
      bucket_percentile ~count:h.h_count ~min_value:h.h_min ~max_value:h.h_max
        h.buckets q
    in
    {
      count = h.h_count;
      sum = h.h_sum;
      min = h.h_min;
      max = h.h_max;
      mean = float_of_int h.h_sum /. float_of_int h.h_count;
      p50 = pct 0.50;
      p95 = pct 0.95;
      p99 = pct 0.99;
    }

let histogram t name = Option.map snapshot (Hashtbl.find_opt t.hists name)

let hist_buckets t name =
  Option.map (fun h -> Array.copy h.buckets) (Hashtbl.find_opt t.hists name)

let percentile t name q =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h ->
      Some
        (bucket_percentile ~count:h.h_count ~min_value:h.h_min
           ~max_value:h.h_max h.buckets q)

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters)
let histograms t = List.map (fun (k, h) -> (k, snapshot h)) (sorted_bindings t.hists)

let ratio t ~hits ~misses =
  let h = count t hits and m = count t misses in
  if h + m = 0 then None else Some (float_of_int h /. float_of_int (h + m))

(* In place and unsorted: the telemetry tick's walk. *)
let iter_counters t f = Hashtbl.iter (fun name r -> f name !r) t.counters

let iter_histograms t f =
  Hashtbl.iter (fun name h -> f name ~count:h.h_count ~sum:h.h_sum h.buckets)
    t.hists

(* {1 Folding}

   [merge a b] is a fresh registry holding the pointwise sum of two
   registries, as if one registry had seen both event streams: counters
   add, histograms add their counts, sums and buckets and take the
   min/max envelope. Because every derived statistic (percentiles,
   mean, the JSON export) is computed from exactly those fields, the
   fold is byte-identical to single-registry accounting — the property
   the per-shard design needs and test_telemetry's QCheck laws pin. *)

let copy_hist h =
  {
    h_count = h.h_count;
    h_sum = h.h_sum;
    h_min = h.h_min;
    h_max = h.h_max;
    buckets = Array.copy h.buckets;
  }

let merge_hist_into dst src =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum + src.h_sum;
  if src.h_min < dst.h_min then dst.h_min <- src.h_min;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max;
  Array.iteri (fun i v -> dst.buckets.(i) <- dst.buckets.(i) + v) src.buckets

let merge a b =
  let t = create () in
  let add_counters src =
    Hashtbl.iter
      (fun name r ->
        match Hashtbl.find_opt t.counters name with
        | Some dst -> dst := !dst + !r
        | None -> Hashtbl.replace t.counters name (ref !r))
      src.counters
  in
  let add_hists src =
    Hashtbl.iter
      (fun name h ->
        match Hashtbl.find_opt t.hists name with
        | Some dst -> merge_hist_into dst h
        | None -> Hashtbl.replace t.hists name (copy_hist h))
      src.hists
  in
  add_counters a;
  add_counters b;
  add_hists a;
  add_hists b;
  t

(* {1 Rendering} *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    (counters t);
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    \"%s\": { \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": \
            %d, \"mean\": %.3f, \"p50\": %d, \"p95\": %d, \"p99\": %d }"
           (json_escape name) s.count s.sum s.min s.max s.mean s.p50 s.p95
           s.p99))
    (histograms t);
  Buffer.add_string b "\n  }\n}";
  Buffer.contents b

let pp fmt t =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-40s %10d@." name v)
    (counters t);
  List.iter
    (fun (name, s) ->
      Format.fprintf fmt "%-40s count=%d sum=%d min=%d max=%d mean=%.1f@." name
        s.count s.sum s.min s.max s.mean)
    (histograms t)
