module Trace = Qnet_trace.Trace

let fold_observed trace ~observed_tasks ~value =
  let member = Hashtbl.create (List.length observed_tasks) in
  List.iter (fun t -> Hashtbl.replace member t ()) observed_tasks;
  let nq = trace.Trace.num_queues in
  let sums = Array.make nq 0.0 in
  let counts = Array.make nq 0 in
  for q = 0 to nq - 1 do
    let events = Trace.queue_events trace q in
    let per_event = value trace q in
    Array.iteri
      (fun k e ->
        if Hashtbl.mem member e.Trace.task then begin
          sums.(q) <- sums.(q) +. per_event.(k);
          counts.(q) <- counts.(q) + 1
        end)
      events
  done;
  (sums, counts)

let mean_observed_service trace ~observed_tasks =
  let sums, counts =
    fold_observed trace ~observed_tasks ~value:(fun t q -> Trace.service_times t q)
  in
  Array.mapi
    (fun q c -> if c = 0 then nan else sums.(q) /. float_of_int c)
    counts
