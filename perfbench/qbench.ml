(* qbench: the repository's end-to-end benchmark.

     qbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Workloads: infer-1m (the qnet_infer pipeline, in-process) and
   serve-replay (a qnet_serve daemon under an
   open-loop replay). Inputs are generated from --seed before timing.
   The run measures for about --seconds, checks that the outputs are
   correct, and prints as its last stdout line one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   --trace 0 reports the end-to-end metrics with tracing off; --trace 1
   makes one extra traced pass and reports the per-layer metrics.
   --tiny shrinks every workload to a seconds-long smoke size (tests).
   perfbench/METRICS.md defines every metric. *)

let usage =
  "qbench --workload infer-1m|serve-replay --seed N --seconds S \
   --trace 0|1 [--tiny]"

let json_of_outcome (o : Util.outcome) =
  let metric (name, value, unit) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
      (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Util.correct o.Util.attempted o.Util.failed
    (String.concat ", " (List.map metric o.Util.metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0)
  and trace = ref (-1) and tiny = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let outcome =
    match !workload with
    | "infer-1m" ->
        Batch.run ~workload:!workload ~tiny:!tiny ~seed:!seed ~seconds:!seconds
          ~trace
    | "serve-replay" ->
        Serving.run ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~trace
    | w ->
        prerr_endline ("qbench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  print_endline (json_of_outcome outcome)
