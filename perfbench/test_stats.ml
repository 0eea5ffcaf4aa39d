(* The benchmark's own arithmetic: the percentile rule and span self
   times. *)

let ints l =
  let a = Stats.ints (List.length l) in
  List.iteri (fun i v -> a.{i} <- v) l;
  a

let percentile_rule () =
  let open Stats in
  let sorted n = Array.init n (fun i -> i + 1) in
  Alcotest.(check (option (pair int int)))
    "p99 of 1000 samples: 10 beyond" (Some (990, 10)) (percentile (sorted 1000) 0.99);
  Alcotest.(check (option (pair int int)))
    "p99 of 999 samples: 9 beyond, not reported" None (percentile (sorted 999) 0.99);
  Alcotest.(check (option (pair int int)))
    "p99 of 1500 samples" (Some (1485, 15)) (percentile (sorted 1500) 0.99);
  Alcotest.(check (option (pair int int)))
    "median of 21 samples" (Some (11, 10)) (percentile (sorted 21) 0.5);
  Alcotest.(check (option (pair int int)))
    "median of 20 samples: 10 beyond" (Some (10, 10)) (percentile (sorted 20) 0.5);
  Alcotest.(check (option (pair int int)))
    "median of 19 samples: 9 beyond" None (percentile (sorted 19) 0.5);
  Alcotest.(check (option (pair int int))) "empty" None (percentile [||] 0.5)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

let summary =
  Alcotest.testable
    (fun ppf (s : Stats.summary) ->
      Format.fprintf ppf "{per_s=%g; p50=%g; p99=%g}" s.per_s s.p50 s.p99)
    (fun (a : Stats.summary) b ->
      close a.per_s b.per_s && a.p50 = b.p50 && a.p99 = b.p99)

let summaries () =
  (* 1,000 samples of 1..1000 ns: 10 beyond the p99, a mean of 500.5 ns. *)
  Alcotest.(check (option summary))
    "1000 samples"
    (Some { per_s = 1e9 /. 500.5; p50 = 500.0; p99 = 990.0 })
    (Stats.summary (Array.init 1_000 (fun i -> 1_000 - i)));
  Alcotest.(check (option summary))
    "999 samples: 9 beyond the p99, not reported" None
    (Stats.summary (Array.init 999 (fun i -> i + 1)))

let windowed () =
  (* 2,500 samples: 2 windows of 1,250 (250 dropped). The first window
     opens with a burst of 100 slow samples (1000..1099), the rest
     cycle through 1..100; each figure is the mean of the two windows'
     figures. *)
  let n = 2_500 in
  let a = Stats.ints n in
  for i = 0 to n - 1 do
    a.{i} <- (if i < 100 then 1_000 + i else (i mod 100) + 1)
  done;
  let per_s sum = 1_250.0 /. (float_of_int sum /. 1e9) in
  let sum1 = (100 * 1_000) + 4_950 + (11 * 5_050) + 1_275
  and sum2 = 3_775 + (12 * 5_050) in
  Alcotest.(check (option (triple summary int int)))
    "two windows"
    (Some
       ( {
           per_s = (per_s sum1 +. per_s sum2) /. 2.0;
           p50 = (53.0 +. 52.0) /. 2.0;
           p99 = (1_087.0 +. 100.0) /. 2.0;
         },
         2,
         1_250 ))
    (Stats.windowed a n ~windows:20 ~align:1);
  let shape w = Option.map (fun (_, count, len) -> (count, len)) w in
  Alcotest.(check (option (pair int int)))
    "windows are whole repeats of the mix" (Some (2, 1_200))
    (shape (Stats.windowed a n ~windows:20 ~align:600));
  Alcotest.(check (option (pair int int)))
    "capped" (Some (1, 2_500))
    (shape (Stats.windowed a n ~windows:1 ~align:1));
  Alcotest.(check bool)
    "too short" true
    (Stats.windowed a 999 ~windows:20 ~align:1 = None)

let self_times_of spans =
  let parent = ints (List.map (fun (p, _, _) -> p) spans)
  and start = ints (List.map (fun (_, s, _) -> s) spans)
  and stop = ints (List.map (fun (_, _, e) -> e) spans) in
  let n = List.length spans in
  let self = Stats.self_times ~parent ~start ~stop n in
  (self, Stats.subtree_sums ~parent self n)

let nested_spans () =
  (* op [0,100] with two bus children and an await child that has a bus
     child of its own. *)
  let self, sums =
    self_times_of
      [ (-1, 0, 100); (0, 10, 20); (0, 30, 60); (2, 35, 45); (0, 70, 75) ]
  in
  Alcotest.(check (array int)) "self" [| 55; 10; 20; 10; 5 |] self;
  Alcotest.(check (array int)) "subtree sums" [| 100; 10; 30; 10; 5 |] sums

let overlapping_children () =
  (* Children that overlap each other, or run past their parent, are
     counted once and clipped. *)
  let self, _ =
    self_times_of [ (-1, 0, 100); (0, 10, 40); (0, 30, 50); (0, 45, 48); (0, 90, 120) ]
  in
  Alcotest.(check int) "parent self" 50 self.(0);
  Alcotest.(check (array int)) "children keep their own durations"
    [| 20; 3; 30 |] (Array.sub self 2 3)

let roots_and_leaves () =
  let self, sums = self_times_of [ (-1, 5, 9); (-1, 10, 30); (1, 10, 30) ] in
  Alcotest.(check (array int)) "self" [| 4; 0; 20 |] self;
  Alcotest.(check (array int)) "sums" [| 4; 20; 20 |] sums

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "ten beyond" `Quick percentile_rule;
          Alcotest.test_case "summary" `Quick summaries;
          Alcotest.test_case "windows" `Quick windowed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested" `Quick nested_spans;
          Alcotest.test_case "overlap and clipping" `Quick overlapping_children;
          Alcotest.test_case "roots and leaves" `Quick roots_and_leaves;
        ] );
    ]
