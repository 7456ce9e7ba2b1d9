module Trace = Qnet_trace.Trace

let out_of_order ~caller i =
  invalid_arg (Printf.sprintf "%s: event %d is out of (task, arrival) order" caller i)

(* A trace [Trace.create] made holds [num_tasks] runs, so one walk fills
   an array of that size. A record built by hand may give another count;
   the runs are then counted before a second walk fills them. *)
let starts ~caller trace =
  let events = trace.Trace.events in
  let n = Array.length events in
  let fill starts =
    let k = ref 0 in
    for i = 0 to n - 1 do
      let e = events.(i) in
      if i = 0 then incr k
      else begin
        let prev = events.(i - 1) in
        if e.Trace.task < prev.Trace.task
           || (e.Trace.task = prev.Trace.task && e.Trace.arrival < prev.Trace.arrival)
        then out_of_order ~caller i;
        if e.Trace.task <> prev.Trace.task then begin
          if !k < Array.length starts then starts.(!k) <- i;
          incr k
        end
      end
    done;
    !k
  in
  let guess = Array.make (Int.max 0 trace.Trace.num_tasks + 1) n in
  if n > 0 then guess.(0) <- 0;
  let runs = fill guess in
  if runs + 1 = Array.length guess then guess
  else begin
    let starts = Array.make (runs + 1) n in
    if n > 0 then starts.(0) <- 0;
    ignore (fill starts);
    starts
  end
