module Trace = Qnet_trace.Trace

let starts ~caller trace =
  let events = trace.Trace.events in
  let n = Array.length events in
  let runs = ref (if n > 0 then 1 else 0) in
  for i = 1 to n - 1 do
    let prev = events.(i - 1) and e = events.(i) in
    if e.Trace.task < prev.Trace.task
       || (e.Trace.task = prev.Trace.task && e.Trace.arrival < prev.Trace.arrival)
    then
      invalid_arg
        (Printf.sprintf "%s: event %d is out of (task, arrival) order" caller i);
    if e.Trace.task <> prev.Trace.task then incr runs
  done;
  let starts = Array.make (!runs + 1) n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || events.(i).Trace.task <> events.(i - 1).Trace.task then begin
      starts.(!k) <- i;
      incr k
    end
  done;
  starts
