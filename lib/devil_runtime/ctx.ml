type decision =
  | Poll_decision of { label : string; ordinal : int }
  | Retry_decision of { label : string; attempt : int; ordinal : int }

type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  profile : Profile.t option;
  poll_deadline : int;
  decider : (decision -> bool) option;
  mutable rid : int;
  mutable poll_points : int;
  mutable retry_points : int;
}

let default_poll_deadline = 1_000_000

let create ?trace ?metrics ?profile ?(poll_deadline = default_poll_deadline)
    ?decider () =
  if poll_deadline <= 0 then invalid_arg "Ctx.create: poll_deadline <= 0";
  {
    trace;
    metrics;
    profile;
    poll_deadline;
    decider;
    rid = 0;
    poll_points = 0;
    retry_points = 0;
  }

let serving t rid f x =
  t.rid <- rid;
  match f x with
  | v ->
      t.rid <- 0;
      v
  | exception e ->
      t.rid <- 0;
      raise e

let decide_poll t ~label =
  match t.decider with
  | None -> false
  | Some d ->
      let ordinal = t.poll_points in
      t.poll_points <- ordinal + 1;
      d (Poll_decision { label; ordinal })

let decide_retry t ~label ~attempt =
  match t.decider with
  | None -> false
  | Some d ->
      let ordinal = t.retry_points in
      t.retry_points <- ordinal + 1;
      d (Retry_decision { label; attempt; ordinal })
