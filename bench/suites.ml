(* Every suite that writes a row artifact, for tools/benchcheck to look
   up by the artifact's "suite" field. *)
let all = [ Benchjson.suite; Async.suite; Latency.suite; Soak.suite ]
