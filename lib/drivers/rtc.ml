module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Value = Devil_ir.Value

type time = { hours : int; minutes : int; seconds : int }

(* The update flag clears within one RTC cycle; an expiry is tolerated
   because the double-sample in [read_time] catches torn reads. *)
let update_deadline = 10_000

module Devil_driver = struct
  type t = Instance.t

  let create inst = inst

  let get_int t name =
    match Instance.get t name with Value.Int v -> v | _ -> 0

  let wait_update_window t =
    ignore
      (Policy.try_poll ?ctx:(Instance.ctx t) ~deadline:update_deadline
         (fun () ->
           match Instance.get t "update_in_progress" with
           | Value.Bool true -> false
           | _ -> true))

  let sample t =
    {
      hours = get_int t "hours";
      minutes = get_int t "minutes";
      seconds = get_int t "seconds";
    }

  let read_time t =
    wait_update_window t;
    let rec stable n =
      let a = sample t in
      let b = sample t in
      if a = b || n = 0 then a else stable (n - 1)
    in
    stable 8

  let set_time t { hours; minutes; seconds } =
    (* The first status-B write composes the unwritten siblings as
       zero, so the driver pins the format bits explicitly instead of
       inheriting whatever the firmware left. *)
    Instance.set t "set_mode" (Value.Enum "HALT_UPDATES");
    Instance.set t "binary_mode" (Value.Enum "BINARY");
    Instance.set t "format_24h" (Value.Bool true);
    Instance.set t "hours" (Value.Int hours);
    Instance.set t "minutes" (Value.Int minutes);
    Instance.set t "seconds" (Value.Int seconds);
    Instance.set t "set_mode" (Value.Enum "RUN")

  let set_alarm t { hours; minutes; seconds } =
    Instance.set t "hours_alarm" (Value.Int hours);
    Instance.set t "minutes_alarm" (Value.Int minutes);
    Instance.set t "seconds_alarm" (Value.Int seconds)

  let enable_alarm_irq t on = Instance.set t "alarm_irq" (Value.Bool on)

  let pending_interrupts t = get_int t "irq_flags"
end

module Handcrafted = struct
  type t = { bus : Devil_runtime.Bus.t; index_base : int; data_base : int }

  let create bus ~index_base ~data_base = { bus; index_base; data_base }

  let read_reg t i =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:t.index_base ~value:i;
    t.bus.Devil_runtime.Bus.read ~width:8 ~addr:t.data_base

  let write_reg t i v =
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:t.index_base ~value:i;
    t.bus.Devil_runtime.Bus.write ~width:8 ~addr:t.data_base ~value:v

  let wait_update_window t =
    ignore
      (Policy.try_poll ~deadline:update_deadline (fun () ->
           read_reg t 10 land 0x80 = 0))

  let sample t =
    { hours = read_reg t 4; minutes = read_reg t 2; seconds = read_reg t 0 }

  let read_time t =
    wait_update_window t;
    let rec stable n =
      let a = sample t in
      let b = sample t in
      if a = b || n = 0 then a else stable (n - 1)
    in
    stable 8

  let set_time t { hours; minutes; seconds } =
    let b = read_reg t 11 in
    write_reg t 11 (b lor 0x80);
    write_reg t 4 hours;
    write_reg t 2 minutes;
    write_reg t 0 seconds;
    write_reg t 11 (b land lnot 0x80)

  let set_alarm t { hours; minutes; seconds } =
    write_reg t 5 hours;
    write_reg t 3 minutes;
    write_reg t 1 seconds

  let enable_alarm_irq t on =
    let b = read_reg t 11 in
    write_reg t 11 (if on then b lor 0x20 else b land lnot 0x20)

  let pending_interrupts t = (read_reg t 12 lsr 4) land 0xf
end
