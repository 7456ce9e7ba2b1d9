module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Span = Qnet_obs.Span

type scheme =
  | All
  | Task_fraction of float
  | Event_fraction of float
  | Explicit_tasks of int list

let validate = function
  | All -> Ok ()
  | Task_fraction f | Event_fraction f ->
      if f >= 0.0 && f <= 1.0 then Ok ()
      else Error "observation fraction must lie in [0,1]"
  | Explicit_tasks _ -> Ok ()

(* Task k, the k-th smallest id, owns the run of events
   [starts.(k)] to [starts.(k + 1) - 1]. *)
let task_id trace starts k = trace.Trace.events.(starts.(k)).Trace.task

(* Every departure, including the final one: in the paper's event model
   the transition into the FSM's final state is itself an event whose
   arrival time is the last service completion, so observing all of a
   task's arrivals pins every departure. *)
let mark_task_observed mask starts k = Array.fill mask starts.(k) (starts.(k + 1) - starts.(k)) true

let find_task trace starts id =
  let rec scan k =
    if k >= Array.length starts - 1 then None
    else if task_id trace starts k = id then Some k
    else scan (k + 1)
  in
  scan 0

let mask rng scheme trace =
  Span.with_span "observation.mask" @@ fun () ->
  (match validate scheme with
  | Ok () -> ()
  | Error m -> invalid_arg ("Observation.mask: " ^ m));
  let n = Array.length trace.Trace.events in
  let starts = Task_runs.starts ~caller:"Observation.mask" trace in
  let total = Array.length starts - 1 in
  let m = Array.make n false in
  (match scheme with
  | All -> Array.fill m 0 n true
  | Explicit_tasks tasks ->
      List.iter
        (fun task ->
          match find_task trace starts task with
          | Some k -> mark_task_observed m starts k
          | None -> invalid_arg (Printf.sprintf "Observation.mask: unknown task %d" task))
        tasks
  | Task_fraction f ->
      let want = Stdlib.max 1 (int_of_float (Float.round (f *. float_of_int total))) in
      let want = Stdlib.min want total in
      let chosen = Rng.sample_without_replacement rng want total in
      List.iter (mark_task_observed m starts) chosen
  | Event_fraction f ->
      (* Observing the arrival of event e fixes the departure of its
         within-task predecessor; the arrival of the implicit
         final-state event fixes the last departure. One independent
         coin per arrival. *)
      for k = 0 to total - 1 do
        let last = starts.(k + 1) - 1 in
        for i = starts.(k) to last - 1 do
          if Rng.float_unit rng < f then m.(i) <- true
        done;
        if Rng.float_unit rng < f then m.(last) <- true
      done);
  m

let observed_tasks trace mask =
  let starts = Task_runs.starts ~caller:"Observation.observed_tasks" trace in
  let rec all_observed i stop = i >= stop || (mask.(i) && all_observed (i + 1) stop) in
  let rec collect k acc =
    if k < 0 then acc
    else if all_observed starts.(k) starts.(k + 1) then
      collect (k - 1) (task_id trace starts k :: acc)
    else collect (k - 1) acc
  in
  collect (Array.length starts - 2) []

let fraction_events_observed mask =
  let n = Array.length mask in
  if n = 0 then 0.0
  else begin
    let c = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
    float_of_int c /. float_of_int n
  end
