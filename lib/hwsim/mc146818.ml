type t = {
  mutable index : int;
  mutable hours : int;
  mutable minutes : int;
  mutable seconds : int;
  mutable alarm_h : int;
  mutable alarm_m : int;
  mutable alarm_s : int;
  mutable weekday : int;
  mutable day : int;
  mutable month : int;
  mutable year : int;
  mutable status_a : int;
  mutable status_b : int;
  mutable status_c : int;  (* pending irq flags, bits 6..4 *)
  mutable uip_countdown : int;
}

let create () =
  {
    index = 0;
    hours = 0;
    minutes = 0;
    seconds = 0;
    alarm_h = 0;
    alarm_m = 0;
    alarm_s = 0;
    weekday = 4;
    day = 1;
    month = 1;
    year = 0;
    status_a = 0x26;
    status_b = 0x06;  (* binary, 24h *)
    status_c = 0;
    uip_countdown = 0;
  }

let binary_mode t = t.status_b land 0x04 <> 0
let halted t = t.status_b land 0x80 <> 0

let to_bcd v = ((v / 10) lsl 4) lor (v mod 10)
let from_bcd v = (((v lsr 4) land 0xf) * 10) + (v land 0xf)

let encode t v = if binary_mode t then v else to_bcd v
let decode t v = if binary_mode t then v else from_bcd v

let set_time t ~hours ~minutes ~seconds =
  t.hours <- hours mod 24;
  t.minutes <- minutes mod 60;
  t.seconds <- seconds mod 60

let time t = (t.hours, t.minutes, t.seconds)

let alarm_match t =
  t.hours = t.alarm_h && t.minutes = t.alarm_m && t.seconds = t.alarm_s

let tick_seconds t n =
  if not (halted t) then
    for _ = 1 to n do
      t.seconds <- t.seconds + 1;
      if t.seconds = 60 then begin
        t.seconds <- 0;
        t.minutes <- t.minutes + 1;
        if t.minutes = 60 then begin
          t.minutes <- 0;
          t.hours <- (t.hours + 1) mod 24
        end
      end;
      (* update-ended flag, and the alarm when it matches *)
      t.status_c <- t.status_c lor 0x10;
      if alarm_match t then t.status_c <- t.status_c lor 0x20;
      t.uip_countdown <- 2
    done

let irq_asserted t =
  (* A flag interrupts when its enable bit in status B is set. *)
  t.status_c land t.status_b land 0x70 <> 0

let read_reg t i =
  match i with
  | 0 -> encode t t.seconds
  | 1 -> encode t t.alarm_s
  | 2 -> encode t t.minutes
  | 3 -> encode t t.alarm_m
  | 4 -> encode t t.hours
  | 5 -> encode t t.alarm_h
  | 6 -> encode t t.weekday
  | 7 -> encode t t.day
  | 8 -> encode t t.month
  | 9 -> encode t t.year
  | 10 ->
      (* UIP pulses briefly after a tick. *)
      let uip = if t.uip_countdown > 0 then 0x80 else 0x00 in
      if t.uip_countdown > 0 then t.uip_countdown <- t.uip_countdown - 1;
      uip lor (t.status_a land 0x7f)
  | 11 -> t.status_b
  | 12 ->
      (* Reading status C acknowledges all flags. *)
      let v = t.status_c land 0x70 in
      let v = if v <> 0 then v lor 0x80 else v in
      t.status_c <- 0;
      v
  | 13 -> 0x80  (* battery good, data valid *)
  | _ -> 0xff

let write_reg t i v =
  match i with
  | 0 -> t.seconds <- decode t v mod 60
  | 1 -> t.alarm_s <- decode t v mod 60
  | 2 -> t.minutes <- decode t v mod 60
  | 3 -> t.alarm_m <- decode t v mod 60
  | 4 -> t.hours <- decode t v mod 24
  | 5 -> t.alarm_h <- decode t v mod 24
  | 6 -> t.weekday <- decode t v
  | 7 -> t.day <- decode t v
  | 8 -> t.month <- decode t v
  | 9 -> t.year <- decode t v
  | 10 -> t.status_a <- v land 0x7f
  | 11 -> t.status_b <- v
  | 12 | 13 -> ()  (* read-only *)
  | _ -> ()

let index_model t =
  {
    Model.name = "mc146818-index";
    read = (fun ~width:_ ~offset:_ -> t.index);
    write = (fun ~width:_ ~offset:_ ~value -> t.index <- value land 0x7f);
    block = None;
  }

let data_model t =
  {
    Model.name = "mc146818-data";
    read = (fun ~width:_ ~offset:_ -> read_reg t t.index);
    write = (fun ~width:_ ~offset:_ ~value -> write_reg t t.index (value land 0xff));
    block = None;
  }
