type t = {
  disk : Ide_disk.t;
  memory : Bytes.t;
  mutable prd : int;
  mutable running : bool;
  mutable direction_to_memory : bool;
  mutable status_irq : bool;
  mutable status_error : bool;
  mutable latency : int;  (* work units per transfer; 0 = instantaneous *)
  mutable countdown : int;  (* remaining work of a deferred transfer; 0: none *)
}

let create ~disk ~memory_size =
  {
    disk;
    memory = Bytes.make memory_size '\000';
    prd = 0;
    running = false;
    direction_to_memory = false;
    status_irq = false;
    status_error = false;
    latency = 0;
    countdown = 0;
  }

let set_latency t n = t.latency <- max 0 n

let memory t = t.memory
let irq_seen t = t.status_irq

let run_transfer t =
  let sector = Ide_disk.sector_bytes in
  match Ide_disk.dma_read_pending t.disk with
  | Some (lba, count) when t.direction_to_memory ->
      let ok = ref true in
      for s = 0 to count - 1 do
        let data = Ide_disk.read_sector t.disk ~lba:(lba + s) in
        let dst = t.prd + (s * sector) in
        if dst + sector <= Bytes.length t.memory then
          Bytes.blit data 0 t.memory dst sector
        else ok := false
      done;
      t.status_error <- not !ok;
      t.status_irq <- true;
      t.running <- false;
      Ide_disk.dma_complete t.disk
  | _ -> (
      match Ide_disk.dma_write_pending t.disk with
      | Some (lba, count) when not t.direction_to_memory ->
          let ok = ref true in
          for s = 0 to count - 1 do
            let src = t.prd + (s * sector) in
            if src + sector <= Bytes.length t.memory then
              Ide_disk.write_sector t.disk ~lba:(lba + s)
                (Bytes.sub t.memory src sector)
            else ok := false
          done;
          t.status_error <- not !ok;
          t.status_irq <- true;
          t.running <- false;
          Ide_disk.dma_complete t.disk
      | _ ->
          (* Started without a matching disk command: flag an error. *)
          t.status_error <- true;
          t.running <- false)

(* One unit of engine progress. A latency-deferred transfer still
   executes atomically when its countdown expires — the deferral
   models the bus time a real transfer takes, during which a polling
   driver burns a status read per unit while a queued driver runs the
   scheduler loop and hears about completion through the IRQ line. *)
let tick t =
  if t.countdown > 0 && t.running then
    if t.countdown = 1 then begin
      t.countdown <- 0;
      run_transfer t
    end
    else t.countdown <- t.countdown - 1

let bm_read t ~width:_ ~offset =
  match offset with
  | 0 ->
      (if t.running then 0x01 else 0x00)
      lor if t.direction_to_memory then 0x08 else 0x00
  | 2 ->
      (* A status poll is itself a bus cycle, so it advances a deferred
         transfer one unit: polling still terminates with latency > 0,
         it just pays an I/O operation per unit of progress. *)
      tick t;
      (if t.running then 0x01 else 0x00)
      lor (if t.status_error then 0x02 else 0x00)
      lor if t.status_irq then 0x04 else 0x00
  | _ -> 0xff

let bm_write t ~width:_ ~offset ~value =
  match offset with
  | 0 ->
      t.direction_to_memory <- value land 0x08 <> 0;
      if value land 0x01 <> 0 then begin
        t.running <- true;
        if t.latency = 0 then run_transfer t
        else t.countdown <- t.latency
      end
      else begin
        t.running <- false;
        t.countdown <- 0
      end
  | 2 ->
      (* Write-1-to-clear status bits. *)
      if value land 0x02 <> 0 then t.status_error <- false;
      if value land 0x04 <> 0 then t.status_irq <- false
  | _ -> ()

let prd_read t ~width:_ ~offset =
  match offset with 0 -> t.prd | _ -> 0

let prd_write t ~width:_ ~offset ~value =
  match offset with 0 -> t.prd <- value | _ -> ()

let bm_model t =
  { Model.name = "piix4-busmaster"; read = bm_read t; write = bm_write t }

let prd_model t =
  { Model.name = "piix4-prd"; read = prd_read t; write = prd_write t }
