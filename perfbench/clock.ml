(* bechamel's CLOCK_MONOTONIC stub (the clock devil_runtime already
   links), declared unboxed and noalloc so that reading it inside the
   op loop allocates nothing and keeps nanosecond resolution. *)
external now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let ns () = Int64.to_int (now ())
