type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let tail_min = 10

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let i = max 0 (min (n - 1) (rank - 1)) in
    let beyond = n - 1 - i in
    if beyond >= tail_min then Some (sorted.(i), beyond) else None

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty";
  let a = Array.copy a in
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type summary = { per_s : float; p50 : float; p99 : float }

let summary a =
  let sum = Array.fold_left ( + ) 0 a in
  Array.sort compare a;
  match (percentile a 0.5, percentile a 0.99) with
  | Some (p50, _), Some (p99, _) when sum > 0 ->
      Some
        {
          per_s = float_of_int (Array.length a) /. (float_of_int sum /. 1e9);
          p50 = float_of_int p50;
          p99 = float_of_int p99;
        }
  | _ -> None

(* The shortest window with [tail_min] samples beyond its p99. *)
let min_window = tail_min * 100

let windowed samples n ~windows ~align =
  let min_len = (min_window + align - 1) / align * align in
  let count = min windows (n / min_len) in
  if count = 0 then None
  else
    let len = n / count / align * align in
    let values =
      Array.init count (fun w ->
          summary (Array.init len (fun j -> samples.{(w * len) + j})))
    in
    if Array.exists Option.is_none values then None
    else
      let values = Array.map Option.get values in
      let med f = median (Array.map f values) in
      Some
        ( {
            per_s = med (fun s -> s.per_s);
            p50 = med (fun s -> s.p50);
            p99 = med (fun s -> s.p99);
          },
          count,
          len )

let self_times ~parent ~start ~stop n =
  let self = Array.init n (fun i -> stop.{i} - start.{i}) in
  (* Children arrive in start order, so the union of their intervals
     is built left to right: [covered.(p)] is the end of the part of
     parent [p] already claimed by earlier children. *)
  let covered = Array.init n (fun i -> start.{i}) in
  for i = 0 to n - 1 do
    let p = parent.{i} in
    if p >= 0 then begin
      let lo = max start.{i} covered.(p) and hi = min stop.{i} stop.{p} in
      if hi > lo then begin
        self.(p) <- self.(p) - (hi - lo);
        covered.(p) <- hi
      end
    end
  done;
  self

let subtree_sums ~parent self n =
  let sums = Array.sub self 0 n in
  for i = n - 1 downto 0 do
    let p = parent.{i} in
    if p >= 0 then sums.(p) <- sums.(p) + sums.(i)
  done;
  sums
