type block = {
  read_block : width:int -> offset:int -> into:int array -> unit;
  write_block : width:int -> offset:int -> from:int array -> unit;
}

type t = {
  name : string;
  read : width:int -> offset:int -> int;
  write : width:int -> offset:int -> value:int -> unit;
  block : block option;
}

let ram ~name ~size =
  let cells = Array.make size 0 in
  {
    name;
    read =
      (fun ~width ~offset ->
        cells.(offset) land Devil_bits.Bitops.width_mask width);
    write =
      (fun ~width ~offset ~value ->
        cells.(offset) <- value land Devil_bits.Bitops.width_mask width);
    block = None;
  }
