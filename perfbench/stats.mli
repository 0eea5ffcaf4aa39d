(** The arithmetic the benchmark reports with, kept apart from the
    workloads so that it can be tested on its own. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Preallocated integer buffers outside the OCaml heap: latencies and
    spans are stored here so that recording them neither allocates nor
    grows the heap the benchmark reports on. *)

val ints : int -> ints
(** An uninitialised buffer of the given length; its pages cost memory
    only once written. *)

val tail_min : int
(** A percentile is reported only when at least this many samples lie
    beyond it (10). *)

val percentile : int array -> float -> (int * int) option
(** [percentile sorted p] is the nearest-rank [p]-quantile of an
    ascending array, with the number of samples ranked beyond it:
    [Some (value, beyond)] when [beyond >= tail_min], [None] otherwise
    (including the empty array). *)

type summary = {
  per_s : float;  (** samples per second of their sum *)
  p50 : float;
  p99 : float;
}
(** What a set of latencies in nanoseconds reports. *)

val summary : int array -> summary option
(** [summary latencies] is their throughput and their nearest-rank p50
    and p99, or [None] when fewer than [tail_min] samples lie beyond the
    p99 (under 1,000 samples). Sorts the array in place. *)

val windowed : ints -> int -> windows:int -> align:int -> (summary * int * int) option
(** [windowed samples n ~windows ~align] splits the first [n] samples,
    in recorded order, into as many equal windows as possible, at most
    [windows], each a multiple of [align] samples long and long enough
    for a {!summary} (samples left over at the end are dropped). It
    returns the median over windows of each field of each window's
    summary, the number of windows and their length; [None] when [n] is
    too short for one window. A burst that slows a few windows then
    moves the figures less than it moves those of the whole run. *)

val median : float array -> float
(** The middle value (mean of the two middle values for an even
    length). Raises [Invalid_argument] on an empty array. *)

val self_times : parent:ints -> start:ints -> stop:ints -> int -> int array
(** [self_times ~parent ~start ~stop n] gives, for each of the first [n]
    spans, its duration minus the time its direct children cover.
    [parent.{i}] is the index of span [i]'s parent, or [-1] for a root;
    a parent is recorded before its children, and siblings in the order
    they started. Overlapping children count once, and a child's
    interval is clipped to its parent's. *)

val subtree_sums : parent:ints -> int array -> int -> int array
(** [subtree_sums ~parent self n] sums [self] over each span's subtree
    (the span and all its descendants). For properly nested spans the
    sum equals the span's duration. *)
