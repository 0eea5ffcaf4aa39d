module J = Devil_runtime.Trace_export

type row = {
  workload : string;
  layer : string;
  metric : string;
  unit : string;
  value : float option;
}

let units = [ "ns"; "us"; "1/s"; "count"; "share"; "ticks"; "ratio" ]
let time_units = [ "ns"; "us"; "ticks" ]
let row workload layer metric unit v = { workload; layer; metric; unit; value = Some v }
let fixed n x = float_of_string (Printf.sprintf "%.*f" n x)

type key = string * string * string

let key r = (r.workload, r.layer, r.metric)
let key_to_string (w, l, m) = String.concat "/" [ w; l; m ]

type bound = At_least of float | At_most of float | Exactly of float
type gate = key * bound

type suite = {
  name : string;
  workloads : string list;
  layers : string list;
  nullable : string list;
  gates : gate list;
}

let row_errors suite seen r =
  let k = key_to_string (key r) in
  List.filter_map Fun.id
    [
      (if List.mem r.unit units then None
       else Some (Printf.sprintf "%s: unknown unit %S" k r.unit));
      (if List.mem r.workload suite.workloads then None
       else Some (Printf.sprintf "%s: unknown workload %S" k r.workload));
      (if List.mem r.layer suite.layers then None
       else Some (Printf.sprintf "%s: unknown layer %S" k r.layer));
      (if Hashtbl.mem seen (key r) then Some (k ^ ": duplicate row") else None);
      (match r.value with
      | Some v when v < 0.0 -> Some (Printf.sprintf "%s: negative value %g" k v)
      | None when not (List.mem r.metric suite.nullable) ->
          Some (k ^ ": null value on a metric that is never null")
      | _ -> None);
    ]

let gate_error rows (k, bound) =
  let name = key_to_string k in
  match List.find_opt (fun r -> key r = k) rows with
  | None -> Some (name ^ ": missing row")
  | Some { value = None; _ } -> None
  | Some { value = Some v; _ } -> (
      match bound with
      | At_least b when v < b -> Some (Printf.sprintf "%s = %g, gate >= %g" name v b)
      | At_most b when v > b -> Some (Printf.sprintf "%s = %g, gate <= %g" name v b)
      | Exactly b when v <> b -> Some (Printf.sprintf "%s = %g, gate = %g" name v b)
      | _ -> None)

let check suite rows =
  let seen = Hashtbl.create 64 in
  let row_errs =
    List.concat_map
      (fun r ->
        let errs = row_errors suite seen r in
        Hashtbl.replace seen (key r) ();
        errs)
      rows
  in
  row_errs @ List.filter_map (gate_error rows) suite.gates

(* {1 Artifacts} *)

let version = 1

let row_to_json r =
  let value =
    match r.value with
    | None -> J.Null
    | Some v when Float.is_integer v && Float.abs v < 1e15 -> J.Int (int_of_float v)
    | Some v -> J.Float v
  in
  J.json_to_string
    (J.Obj
       [
         ("workload", J.String r.workload);
         ("layer", J.String r.layer);
         ("metric", J.String r.metric);
         ("unit", J.String r.unit);
         ("value", value);
       ])

let to_string ~suite rows =
  Printf.sprintf "{\"devil_bench_version\":%d,\"suite\":%s,\"rows\":[\n%s\n]}\n"
    version
    (J.json_to_string (J.String suite))
    (String.concat ",\n" (List.map row_to_json rows))

let ( let* ) = Result.bind

let row_of_json i j =
  let at r = Result.map_error (Printf.sprintf "rows[%d]: %s" i) r in
  let* workload = at (J.as_string "workload" j) in
  let* layer = at (J.as_string "layer" j) in
  let* metric = at (J.as_string "metric" j) in
  let* unit = at (J.as_string "unit" j) in
  let* value = at (J.field "value" j) in
  let* value =
    match value with
    | J.Null -> Ok None
    | J.Int n -> Ok (Some (float_of_int n))
    | J.Float f -> Ok (Some f)
    | _ -> at (Error "field \"value\" must be a number or null")
  in
  Ok { workload; layer; metric; unit; value }

let of_string s =
  let* doc = J.json_of_string s in
  let* v = J.field "devil_bench_version" doc in
  let* () =
    if v = J.Int version then Ok ()
    else Error (Printf.sprintf "devil_bench_version must be %d" version)
  in
  let* suite = J.as_string "suite" doc in
  let* rows = J.field "rows" doc in
  match rows with
  | J.List rows ->
      List.mapi row_of_json rows
      |> List.fold_left
           (fun acc r ->
             let* acc = acc in
             let* r = r in
             Ok (r :: acc))
           (Ok [])
      |> Result.map (fun rows -> (suite, List.rev rows))
  | _ -> Error "field \"rows\" must be an array"

let write path ~suite rows = J.write_file path (to_string ~suite rows)

let read path = Result.bind (J.read_file path) of_string
