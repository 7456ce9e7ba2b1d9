(* Tests for qnet_obs: metrics registry exactness under domain
   parallelism, Prometheus/JSONL export, span tracing, the trace
   summary, and the /metrics HTTP endpoint. *)

module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Jsonx = Qnet_obs.Jsonx
module Diagnostics = Qnet_obs.Diagnostics
module Metrics_server = Qnet_webapp.Metrics_server

let check_float = Alcotest.(check (float 1e-12))

(* --- metrics: exact totals under hammering domains ----------------- *)

let test_counter_domains () =
  let reg = Metrics.create_registry () in
  let c = Metrics.Counter.create ~registry:reg "hammer_total" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.Counter.inc c
            done))
  in
  Array.iter Domain.join workers;
  check_float "every increment counted exactly"
    (float_of_int (domains * per_domain))
    (Metrics.Counter.value c)

let test_counter_by_domains () =
  let reg = Metrics.create_registry () in
  let c = Metrics.Counter.create ~registry:reg "weighted_total" in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            (* 0.25 sums exactly in binary floating point *)
            for _ = 1 to 10_000 do
              Metrics.Counter.inc ~by:(0.25 *. float_of_int (d + 1)) c
            done))
  in
  Array.iter Domain.join workers;
  (* 10_000 * 0.25 * (1+2+3+4) = 25_000 *)
  check_float "weighted increments exact" 25_000.0 (Metrics.Counter.value c)

let test_histogram_domains () =
  let reg = Metrics.create_registry () in
  let h =
    Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0; 2.0; 4.0 |]
      "hammer_seconds"
  in
  let values = [| 0.5; 1.5; 3.0; 5.0 |] in
  let per_domain = 10_000 in
  let workers =
    Array.init (Array.length values) (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.Histogram.observe h values.(d)
            done))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "count" 40_000 (Metrics.Histogram.count h);
  (* all values are multiples of 0.5, so the sum is exact *)
  check_float "sum" 100_000.0 (Metrics.Histogram.sum h);
  let cum = Metrics.Histogram.cumulative_buckets h in
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1.0, 10_000); (2.0, 20_000); (4.0, 30_000); (infinity, 40_000) ]
    (Array.to_list cum)

(* --- metrics: registration and cell semantics ---------------------- *)

let test_idempotent_handles () =
  let reg = Metrics.create_registry () in
  let a = Metrics.Counter.create ~registry:reg ~labels:[ ("k", "v") ] "idem_total" in
  let b = Metrics.Counter.create ~registry:reg ~labels:[ ("k", "v") ] "idem_total" in
  Metrics.Counter.inc a;
  Metrics.Counter.inc b;
  check_float "same (name, labels) is the same cell" 2.0 (Metrics.Counter.value a);
  let other = Metrics.Counter.create ~registry:reg ~labels:[ ("k", "w") ] "idem_total" in
  check_float "different labels are a different cell" 0.0
    (Metrics.Counter.value other)

let test_kind_conflict () =
  let reg = Metrics.create_registry () in
  let _ = Metrics.Counter.create ~registry:reg "conflict_total" in
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument
       "Metrics: \"conflict_total\" already registered as a counter, not a gauge")
    (fun () -> ignore (Metrics.Gauge.create ~registry:reg "conflict_total"))

let test_validation () =
  let reg = Metrics.create_registry () in
  (try
     ignore (Metrics.Counter.create ~registry:reg "bad name");
     Alcotest.fail "metric name with a space accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.Counter.create ~registry:reg ~labels:[ ("0bad", "v") ] "ok_total");
     Alcotest.fail "label name starting with a digit accepted"
   with Invalid_argument _ -> ());
  let c = Metrics.Counter.create ~registry:reg "mono_total" in
  (try
     Metrics.Counter.inc ~by:(-1.0) c;
     Alcotest.fail "negative increment accepted"
   with Invalid_argument _ -> ());
  check_float "counter untouched by rejected increment" 0.0
    (Metrics.Counter.value c)

let test_gauge () =
  let reg = Metrics.create_registry () in
  let g = Metrics.Gauge.create ~registry:reg "level" in
  Metrics.Gauge.set g 36.5;
  Metrics.Gauge.add g 1.0;
  check_float "set then add" 37.5 (Metrics.Gauge.value g)

let test_histogram_nan () =
  let reg = Metrics.create_registry () in
  let h = Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0 |] "nan_seconds" in
  Metrics.Histogram.observe h 0.5;
  Metrics.Histogram.observe h Float.nan;
  Alcotest.(check int) "NaN excluded from count" 1 (Metrics.Histogram.count h);
  Alcotest.(check int) "NaN tallied separately" 1 (Metrics.Histogram.nan_count h);
  check_float "NaN excluded from sum" 0.5 (Metrics.Histogram.sum h)

(* --- export formats ------------------------------------------------ *)

let golden_registry () =
  let reg = Metrics.create_registry () in
  let h =
    Metrics.Histogram.create ~registry:reg ~buckets:[| 0.1; 1.0 |]
      ~help:"Observed latency" "golden_latency_seconds"
  in
  Metrics.Histogram.observe h 0.05;
  Metrics.Histogram.observe h 0.5;
  Metrics.Histogram.observe h 5.0;
  let c =
    Metrics.Counter.create ~registry:reg ~help:"Requests served"
      "golden_requests_total"
  in
  Metrics.Counter.inc ~by:3.0 c;
  let lc =
    Metrics.Counter.create ~registry:reg ~help:"Requests served"
      ~labels:[ ("method", "get"); ("code", "200") ]
      "golden_requests_total"
  in
  Metrics.Counter.inc ~by:2.0 lc;
  let esc =
    Metrics.Counter.create ~registry:reg ~help:"Label escaping probe"
      ~labels:[ ("path", "/a\"b\\c\nd") ]
      "golden_tricky_total"
  in
  Metrics.Counter.inc esc;
  let g = Metrics.Gauge.create ~registry:reg ~help:"A temperature" "golden_temperature" in
  Metrics.Gauge.set g 36.5;
  reg

let test_prometheus_golden () =
  let actual = Metrics.to_prometheus (golden_registry ()) in
  let golden =
    let ic = open_in "golden_metrics.prom" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if actual <> golden then
    Alcotest.failf
      "Prometheus text drifted from golden_metrics.prom.@\nActual:@\n%s" actual

let test_jsonl_parses () =
  let out = Metrics.to_jsonl ~ts:1234.5 (golden_registry ()) in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one line per sample" 5 (List.length lines);
  List.iter
    (fun line ->
      match Jsonx.parse_object line with
      | Error m -> Alcotest.failf "unparseable JSONL line %S: %s" line m
      | Ok fields ->
          (match List.assoc_opt "ts" fields with
          | Some (Jsonx.Num 1234.5) -> ()
          | _ -> Alcotest.failf "missing/wrong ts in %S" line);
          if not (List.mem_assoc "name" fields) then
            Alcotest.failf "missing name in %S" line)
    lines

(* --- spans --------------------------------------------------------- *)

let test_span_nesting () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  let r =
    Span.with_span "outer" (fun () ->
        Span.with_span ~attrs:[ ("k", "v") ] "inner" (fun () -> 7) + 1)
  in
  Alcotest.(check int) "value threaded through" 8 r;
  match Span.drain () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner name" "inner" inner.Span.name;
      Alcotest.(check string) "outer name" "outer" outer.Span.name;
      Alcotest.(check (option int)) "inner parented to outer" (Some outer.Span.id)
        inner.Span.parent;
      Alcotest.(check (option int)) "outer is a root" None outer.Span.parent;
      Alcotest.(check (list (pair string string)))
        "attrs kept" [ ("k", "v") ] inner.Span.attrs;
      if inner.Span.duration > outer.Span.duration then
        Alcotest.fail "child outlives parent"
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception_safe () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  (try Span.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Span.with_span "after" (fun () -> ());
  match Span.drain () with
  | [ boom; after ] ->
      Alcotest.(check string) "raising span recorded" "boom" boom.Span.name;
      Alcotest.(check (option int)) "stack unwound: next span is a root" None
        after.Span.parent
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_ring_overflow () =
  Span.enable ~capacity:8 ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  for i = 1 to 20 do
    Span.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let spans = Span.drain () in
  Alcotest.(check int) "ring keeps newest [capacity]" 8 (List.length spans);
  Alcotest.(check int) "overwrites counted" 12 (Span.dropped ());
  Alcotest.(check (list string))
    "newest survive, in completion order"
    [ "s13"; "s14"; "s15"; "s16"; "s17"; "s18"; "s19"; "s20" ]
    (List.map (fun s -> s.Span.name) spans)

let test_span_disabled_is_free () =
  Span.disable ();
  let r = Span.with_span "ghost" (fun () -> 42) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.drain ()))

let test_span_json_roundtrip () =
  let s =
    {
      Span.id = 17;
      parent = Some 3;
      name = "gibbs.sweep";
      start = 1.25;
      duration = 0.0625;
      attrs = [ ("chain", "2"); ("note", "a\"b\\c") ];
    }
  in
  (match Span.of_json (Span.to_json s) with
  | Error m -> Alcotest.failf "roundtrip failed: %s" m
  | Ok s' ->
      Alcotest.(check int) "id" s.Span.id s'.Span.id;
      Alcotest.(check (option int)) "parent" s.Span.parent s'.Span.parent;
      Alcotest.(check string) "name" s.Span.name s'.Span.name;
      check_float "start" s.Span.start s'.Span.start;
      check_float "duration" s.Span.duration s'.Span.duration;
      Alcotest.(check (list (pair string string))) "attrs" s.Span.attrs s'.Span.attrs);
  let root = { s with Span.parent = None } in
  match Span.of_json (Span.to_json root) with
  | Error m -> Alcotest.failf "null-parent roundtrip failed: %s" m
  | Ok r -> Alcotest.(check (option int)) "null parent" None r.Span.parent

let test_read_jsonl_malformed () =
  let path = Filename.temp_file "qnet_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let good1 =
    Span.to_json
      { Span.id = 1; parent = None; name = "a"; start = 0.0; duration = 1.0; attrs = [] }
  in
  let good2 =
    Span.to_json
      { Span.id = 2; parent = Some 1; name = "b"; start = 0.1; duration = 0.5; attrs = [] }
  in
  let oc = open_out path in
  output_string oc (good1 ^ "\n{not json}\n" ^ good2 ^ "\n\n");
  close_out oc;
  match Span.read_jsonl path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok { Span.spans; malformed; dropped } ->
      Alcotest.(check int) "good spans kept" 2 (List.length spans);
      Alcotest.(check int) "malformed lines counted, blanks ignored" 1 malformed;
      Alcotest.(check int) "no trailer -> dropped 0" 0 dropped

let test_read_jsonl_truncated () =
  (* a crashed writer leaves the tail of a spans file cut mid-document;
     read_jsonl must keep every whole span and count the wreckage, and
     the summary must still work over the survivors *)
  let path = Filename.temp_file "qnet_obs_trunc" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let mk id parent name =
    Span.to_json
      { Span.id; parent; name; start = float_of_int id; duration = 1.0; attrs = [] }
  in
  let good1 = mk 1 None "root" and good2 = mk 2 (Some 1) "child" in
  let oc = open_out path in
  output_string oc (good1 ^ "\n");
  (* valid JSON, wrong shape *)
  output_string oc "{\"id\":true}\n";
  (* a burst of binary garbage (disk corruption) *)
  output_string oc "\x00\xff\x13span\x07\n";
  output_string oc (good2 ^ "\n");
  (* the final line truncated mid-JSON, no trailing newline *)
  output_string oc (String.sub good1 0 (String.length good1 / 2));
  close_out oc;
  match Span.read_jsonl path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok { Span.spans; malformed; dropped = _ } ->
      Alcotest.(check int) "whole spans kept" 2 (List.length spans);
      Alcotest.(check int) "wrong-shape + garbage + truncated counted" 3 malformed;
      let s = Span.Summary.of_spans spans in
      Alcotest.(check int) "summary runs over survivors" 2 s.Span.Summary.spans

(* --- folded stacks (flamegraph export) ----------------------------- *)

let test_folded_stacks () =
  let mk id parent name duration = { Span.id; parent; name; start = 0.0; duration; attrs = [] } in
  let spans =
    [
      mk 1 None "root" 10.0;
      (* child name exercises separator sanitization: ';' and ' ' would
         corrupt the folded line format *)
      mk 2 (Some 1) "gibbs sweep;hot" 4.0;
      (* zero self time must not emit a stack *)
      mk 3 None "zero" 0.0;
      (* parent overwritten in the ring before draining: the stack
         truncates at the orphan rather than dropping it *)
      mk 4 (Some 99) "orphan" 2.0;
    ]
  in
  Alcotest.(check (list (pair string int)))
    "self time per sanitized stack, sorted"
    [
      ("orphan", 2_000_000);
      ("root", 6_000_000);
      ("root;gibbs_sweep:hot", 4_000_000);
    ]
    (Span.to_folded spans)

let test_folded_merges_identical_stacks () =
  let mk id name duration = { Span.id; parent = None; name; start = 0.0; duration; attrs = [] } in
  Alcotest.(check (list (pair string int)))
    "same stack aggregates"
    [ ("sweep", 3_500_000) ]
    (Span.to_folded [ mk 1 "sweep" 1.5; mk 2 "sweep" 2.0 ])

let test_summary () =
  let mk id parent name start duration =
    { Span.id; parent; name; start; duration; attrs = [] }
  in
  (* root [0,10] with children [0,4] and [5,8]; a second root [10,12] *)
  let spans =
    [
      mk 2 (Some 1) "child" 0.0 4.0;
      mk 3 (Some 1) "child" 5.0 3.0;
      mk 1 None "root" 0.0 10.0;
      mk 4 None "tail" 10.0 2.0;
    ]
  in
  let s = Span.Summary.of_spans spans in
  check_float "wall spans earliest start to latest end" 12.0 s.Span.Summary.wall;
  check_float "roots cover everything" 1.0 s.Span.Summary.coverage;
  let phase name =
    List.find (fun p -> p.Span.Summary.name = name) s.Span.Summary.phases
  in
  check_float "root self excludes direct children" 3.0 (phase "root").Span.Summary.self;
  Alcotest.(check int) "phases aggregate by name" 2 (phase "child").Span.Summary.count;
  check_float "child total" 7.0 (phase "child").Span.Summary.total;
  check_float "child max" 4.0 (phase "child").Span.Summary.max_duration

(* --- diagnostics hub ----------------------------------------------- *)

(* Two chains, deterministic mixing series. The wobble keeps the
   within-chain variance positive (a constant window makes R-hat
   0/0) while both chains share a distribution, so split R-hat must
   land near 1. Queue 2 gets triple the waiting time of queue 1, so
   the bottleneck ranking must blame it. Queue 0 is the arrival
   queue and must be excluded from the verdict. *)
let feed_mixing_hub hub =
  Diagnostics.set_arrival_queue hub 0;
  for i = 1 to 32 do
    let wobble = 0.01 *. float_of_int (i mod 5) in
    for chain = 0 to 1 do
      Diagnostics.observe_iteration hub ~chain
        ~waiting:[| 0.5; 1.0; 3.0 |]
        [| 9.0 +. wobble; 1.0 +. wobble; 1.0 -. wobble |]
    done
  done

let test_diag_snapshot () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg ~window:64 ~publish_every:1000 () in
  feed_mixing_hub hub;
  let s = Diagnostics.snapshot hub in
  Alcotest.(check int) "iterations pooled over chains" 64 s.Diagnostics.iterations_total;
  Alcotest.(check int) "no skipped samples" 0 s.Diagnostics.skipped_samples;
  Alcotest.(check int) "three queues" 3 (Array.length s.Diagnostics.queues);
  Alcotest.(check int) "two chains" 2 (Array.length s.Diagnostics.chains);
  Alcotest.(check int) "arrival queue recorded" 0 s.Diagnostics.arrival_queue;
  let q1 = s.Diagnostics.queues.(1) and q2 = s.Diagnostics.queues.(2) in
  Alcotest.(check int) "samples pooled" 64 q1.Diagnostics.samples;
  if not (Float.is_finite q1.Diagnostics.rhat) then
    Alcotest.fail "service-queue R-hat not finite";
  if Float.abs (q1.Diagnostics.rhat -. 1.0) > 0.2 then
    Alcotest.failf "identical chains should mix: R-hat %f" q1.Diagnostics.rhat;
  if not (Float.is_finite s.Diagnostics.max_rhat) then
    Alcotest.fail "max R-hat not finite";
  Alcotest.(check bool) "mixing chains converge" true s.Diagnostics.converged;
  (* waiting 3.0 against service ~1.0 dominates waiting 1.0 *)
  Alcotest.(check int) "bottleneck is the waiting-dominated queue" 2
    s.Diagnostics.bottleneck;
  if q2.Diagnostics.wait_fraction <= q1.Diagnostics.wait_fraction then
    Alcotest.fail "wait_fraction ranking inverted";
  if Float.abs (q1.Diagnostics.mean_service -. 1.02) > 0.01 then
    Alcotest.failf "pooled mean off: %f" q1.Diagnostics.mean_service;
  if q1.Diagnostics.ess < 1.0 then Alcotest.fail "ESS below the [1,n] clamp";
  if Float.abs q1.Diagnostics.acf1 > 1.0 then
    Alcotest.failf "acf1 outside [-1,1]: %f" q1.Diagnostics.acf1

let test_diag_nonfinite_skipped () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg () in
  Diagnostics.observe_iteration hub ~chain:0 [| 1.0; 2.0 |];
  Diagnostics.observe_iteration hub ~chain:0 [| Float.nan; 2.0 |];
  Diagnostics.observe_iteration hub ~chain:0 [| 1.0; Float.infinity |];
  let s = Diagnostics.snapshot hub in
  Alcotest.(check int) "non-finite entries counted" 2 s.Diagnostics.skipped_samples;
  Alcotest.(check int) "queue 0 kept its finite iterates" 2
    s.Diagnostics.queues.(0).Diagnostics.samples;
  Alcotest.(check int) "queue 1 kept its finite iterates" 2
    s.Diagnostics.queues.(1).Diagnostics.samples

let test_diag_dimension_mismatch () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg () in
  Diagnostics.observe_iteration hub ~chain:0 [| 1.0; 2.0; 3.0 |];
  (try
     Diagnostics.observe_iteration hub ~chain:1 [| 1.0 |];
     Alcotest.fail "queue-count change accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "hub state intact after rejection" 1
    (Diagnostics.snapshot hub).Diagnostics.iterations_total

let test_diag_reset () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg () in
  feed_mixing_hub hub;
  Diagnostics.reset hub;
  let s = Diagnostics.snapshot hub in
  Alcotest.(check int) "no iterations after reset" 0 s.Diagnostics.iterations_total;
  Alcotest.(check int) "no queues after reset" 0 (Array.length s.Diagnostics.queues);
  Alcotest.(check int) "arrival queue unset" (-1) s.Diagnostics.arrival_queue;
  (* and the hub is reusable with a different shape *)
  Diagnostics.observe_iteration hub ~chain:0 [| 1.0 |];
  Alcotest.(check int) "reusable with a new queue count" 1
    (Array.length (Diagnostics.snapshot hub).Diagnostics.queues)

let test_diag_sink_and_json () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg ~publish_every:1000 () in
  feed_mixing_hub hub;
  let lines = ref [] in
  Diagnostics.set_sink hub (Some (fun l -> lines := l :: !lines));
  Diagnostics.publish hub;
  Diagnostics.set_sink hub None;
  Diagnostics.publish hub;
  Alcotest.(check int) "one line per publish while installed" 1
    (List.length !lines);
  let line = List.hd !lines in
  (match Jsonx.parse_object line with
  | Error m -> Alcotest.failf "sink line is not a JSON object: %s" m
  | Ok fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "sink line missing %S" k)
        [ "ts"; "max_rhat"; "converged"; "queues"; "chains"; "gc"; "kernels" ]);
  (* /diagnostics.json serves the same document shape *)
  match Jsonx.parse_object (Diagnostics.snapshot_json hub) with
  | Error m -> Alcotest.failf "snapshot_json unparseable: %s" m
  | Ok _ -> ()

let test_diag_publish_gauges () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg ~publish_every:1000 () in
  feed_mixing_hub hub;
  Diagnostics.publish hub;
  let gauge ?labels name = Metrics.Gauge.value (Metrics.Gauge.create ~registry:reg ?labels name) in
  check_float "chain count gauge" 2.0 (gauge "qnet_diag_chains");
  check_float "converged gauge" 1.0 (gauge "qnet_diag_converged");
  let rhat1 = gauge ~labels:[ ("queue", "1") ] "qnet_diag_rhat" in
  if not (Float.is_finite rhat1 && rhat1 > 0.0) then
    Alcotest.failf "per-queue R-hat gauge not published: %f" rhat1;
  let max_rhat = gauge "qnet_diag_max_rhat" in
  if not (Float.is_finite max_rhat && max_rhat > 0.0) then
    Alcotest.failf "max R-hat gauge not published: %f" max_rhat

let test_diag_gc_tick () =
  let reg = Metrics.create_registry () in
  let hub = Diagnostics.create ~registry:reg () in
  Diagnostics.gc_tick hub;
  ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> float_of_int i)));
  Diagnostics.gc_tick hub;
  let s = Diagnostics.snapshot hub in
  if s.Diagnostics.gc.Diagnostics.minor_words <= 0.0 then
    Alcotest.fail "allocation not reflected in GC minor words";
  if s.Diagnostics.gc.Diagnostics.heap_words <= 0 then
    Alcotest.fail "heap words not sampled"

(* Minor words are exact for the calling domain: what the minor heap
   still holds at the second tick counts, with no collection between
   the ticks. *)
let test_diag_gc_tick_minor_heap () =
  let hub = Diagnostics.create ~registry:(Metrics.create_registry ()) () in
  Gc.minor ();
  Diagnostics.gc_tick hub;
  (* 5,000 cons cells: 15,000 words, far below the minor heap *)
  ignore (Sys.opaque_identity (List.init 5_000 Fun.id));
  Diagnostics.gc_tick hub;
  let words = (Diagnostics.snapshot hub).Diagnostics.gc.Diagnostics.minor_words in
  if words < 15_000.0 then
    Alcotest.failf "%.0f minor words after allocating 15,000" words

let test_diag_register_golden () =
  let reg = Metrics.create_registry () in
  Diagnostics.register_metrics ~registry:reg ();
  let actual = Metrics.to_prometheus reg in
  let golden =
    let ic = open_in "golden_diagnostics.prom" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if actual <> golden then
    Alcotest.failf
      "present-zeros scrape drifted from golden_diagnostics.prom.@\nActual:@\n%s"
      actual

(* --- /metrics endpoint --------------------------------------------- *)

let http_get port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "%s HTTP/1.1\r\nHost: localhost\r\n\r\n" target in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  ln = 0 || at 0

let test_metrics_server () =
  let reg = golden_registry () in
  let hub = Diagnostics.create ~registry:reg ~publish_every:1000 () in
  feed_mixing_hub hub;
  match Metrics_server.start ~registry:reg ~diagnostics:hub ~port:0 () with
  | Error e -> Alcotest.failf "cannot start server: %s" (Metrics_server.bind_error_message e)
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Metrics_server.stop srv) @@ fun () ->
      let port = Metrics_server.port srv in
      let metrics = http_get port "GET /metrics" in
      if not (contains metrics "200 OK") then Alcotest.fail "/metrics not 200";
      if not (contains metrics "golden_requests_total 3") then
        Alcotest.failf "scrape missing counter:@\n%s" metrics;
      if not (contains metrics "# TYPE golden_latency_seconds histogram") then
        Alcotest.fail "scrape missing histogram family";
      let health = http_get port "GET /healthz" in
      if not (contains health "ok") then Alcotest.fail "/healthz not ok";
      let diag = http_get port "GET /diagnostics.json" in
      if not (contains diag "200 OK") then Alcotest.fail "/diagnostics.json not 200";
      if not (contains diag "\"max_rhat\":") then
        Alcotest.failf "/diagnostics.json missing max_rhat:@\n%s" diag;
      let dash = http_get port "GET /dashboard" in
      if not (contains dash "200 OK") then Alcotest.fail "/dashboard not 200";
      if not (contains dash "<title>qnet inference dashboard</title>") then
        Alcotest.fail "/dashboard missing the dashboard page";
      if not (contains (http_get port "GET /nope") "404") then
        Alcotest.fail "unknown path should 404";
      if not (contains (http_get port "POST /metrics") "405") then
        Alcotest.fail "non-GET should 405"

let test_metrics_server_stop_idempotent () =
  match Metrics_server.start ~port:0 () with
  | Error e -> Alcotest.failf "cannot start server: %s" (Metrics_server.bind_error_message e)
  | Ok srv ->
      Metrics_server.stop srv;
      Metrics_server.stop srv;
      (* the port is released: a new server can bind an ephemeral port
         and serve again *)
      (match Metrics_server.start ~port:0 () with
      | Error e -> Alcotest.failf "restart failed: %s" (Metrics_server.bind_error_message e)
      | Ok srv2 -> Metrics_server.stop srv2)

let test_bind_collision_typed_error () =
  match Metrics_server.start ~port:0 () with
  | Error e -> Alcotest.failf "cannot start server: %s" (Metrics_server.bind_error_message e)
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Metrics_server.stop srv) @@ fun () ->
      let taken = Metrics_server.port srv in
      (* without retry: a typed `Addr_in_use, not a raw exception *)
      (match Metrics_server.start ~port:taken () with
      | Ok srv2 ->
          Metrics_server.stop srv2;
          Alcotest.fail "second bind on a taken port should fail"
      | Error { Metrics_server.kind = `Addr_in_use; detail } ->
          if not (contains detail "bind") then
            Alcotest.failf "detail should name the bind: %s" detail
      | Error e ->
          Alcotest.failf "expected `Addr_in_use, got: %s"
            (Metrics_server.bind_error_message e));
      (* with retry: the server comes up on an ephemeral port instead *)
      match Metrics_server.start ~retry_ephemeral:true ~port:taken () with
      | Error e ->
          Alcotest.failf "retry_ephemeral should succeed: %s"
            (Metrics_server.bind_error_message e)
      | Ok srv3 ->
          Fun.protect ~finally:(fun () -> Metrics_server.stop srv3) @@ fun () ->
          Alcotest.(check bool) "fell back" true (Metrics_server.fell_back srv3);
          if Metrics_server.port srv3 = taken then
            Alcotest.fail "fallback must land on a different port";
          if not (contains (http_get (Metrics_server.port srv3) "GET /healthz") "ok")
          then Alcotest.fail "fallback server should serve /healthz"

let test_bad_host_typed_error () =
  match Metrics_server.start ~host:"not-an-ip" ~port:0 () with
  | Ok srv ->
      Metrics_server.stop srv;
      Alcotest.fail "bad host should fail"
  | Error { Metrics_server.kind = `Bad_host; _ } -> ()
  | Error e ->
      Alcotest.failf "expected `Bad_host, got: %s"
        (Metrics_server.bind_error_message e)

(* --- histogram bucket boundaries and batched observation ----------- *)

(* the serve SLO bucket ladder: log-scale from 1 microsecond to 100 s *)
let slo_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

let cum_counts h =
  Array.map snd (Metrics.Histogram.cumulative_buckets h)

let test_histogram_bucket_boundaries () =
  let reg = Metrics.create_registry () in
  let h =
    Metrics.Histogram.create ~registry:reg ~buckets:slo_buckets "edge_seconds"
  in
  (* sub-microsecond: below every bound, lands in the first bucket *)
  Metrics.Histogram.observe h 5e-7;
  Alcotest.(check (array int))
    "sub-microsecond lands in le=1e-6"
    [| 1; 1; 1; 1; 1; 1; 1; 1; 1; 1 |]
    (cum_counts h);
  (* an exact bucket edge: le semantics, v <= bound counts the bound's
     own bucket, not the next one up *)
  Metrics.Histogram.observe h 1e-3;
  Alcotest.(check (array int))
    "exact edge 1e-3 counted at le=1e-3"
    [| 1; 1; 1; 2; 2; 2; 2; 2; 2; 2 |]
    (cum_counts h);
  (* past the largest finite bound: only the +Inf bucket *)
  Metrics.Histogram.observe h 1e6;
  Alcotest.(check (array int))
    "overflow lands only in +Inf"
    [| 1; 1; 1; 2; 2; 2; 2; 2; 2; 3 |]
    (cum_counts h);
  Alcotest.(check int) "count" 3 (Metrics.Histogram.count h)

let test_histogram_observe_n () =
  let reg = Metrics.create_registry () in
  let h =
    Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0; 2.0 |] "batch_seconds"
  in
  Metrics.Histogram.observe_n h ~n:32 0.5;
  Metrics.Histogram.observe_n h ~n:7 1.5;
  Metrics.Histogram.observe_n h ~n:0 100.0;
  Alcotest.(check int) "count sums the weights" 39 (Metrics.Histogram.count h);
  check_float "sum is n*v per batch" (32.0 *. 0.5 +. 7.0 *. 1.5)
    (Metrics.Histogram.sum h);
  Alcotest.(check (array int))
    "weighted buckets" [| 32; 39; 39 |] (cum_counts h);
  (try
     Metrics.Histogram.observe_n h ~n:(-1) 0.5;
     Alcotest.fail "negative weight accepted"
   with Invalid_argument _ -> ());
  Metrics.Histogram.observe_n h ~n:5 Float.nan;
  Alcotest.(check int) "NaN batch quarantined with its weight" 5
    (Metrics.Histogram.nan_count h);
  Alcotest.(check int) "NaN batch not counted" 39 (Metrics.Histogram.count h)

let test_histogram_quantile () =
  let reg = Metrics.create_registry () in
  let h =
    Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0; 2.0; 4.0 |]
      "quant_seconds"
  in
  Alcotest.(check bool)
    "empty histogram has no quantiles" true
    (Float.is_nan (Metrics.Histogram.quantile h 0.5));
  (* 100 observations uniformly attributed inside (1, 2] *)
  Metrics.Histogram.observe_n h ~n:100 1.5;
  check_float "median interpolates inside the bucket" 1.5
    (Metrics.Histogram.quantile h 0.5);
  check_float "q=0 clamps to the bucket floor" 1.0
    (Metrics.Histogram.quantile h 0.0);
  (* push mass past the largest finite bound: the +Inf bucket has no
     upper edge, so the quantile clamps to the largest finite bound *)
  Metrics.Histogram.observe_n h ~n:900 100.0;
  check_float "+Inf bucket clamps to largest finite bound" 4.0
    (Metrics.Histogram.quantile h 0.99);
  (try
     ignore (Metrics.Histogram.quantile h 1.5);
     Alcotest.fail "quantile outside [0,1] accepted"
   with Invalid_argument _ -> ())

(* --- trace sampling determinism ------------------------------------ *)

module Trace_ctx = Qnet_obs.Trace_ctx

let decisions sampler n =
  List.init n (fun _ ->
      match Trace_ctx.sample ~born:0.0 sampler with
      | None -> None
      | Some c -> Some c.Trace_ctx.id)

let test_trace_sampling_determinism () =
  let mk () = Trace_ctx.make_sampler ~rate:0.05 ~seed:42 () in
  let a = decisions (mk ()) 2000 and b = decisions (mk ()) 2000 in
  Alcotest.(check (list (option int)))
    "same seed, same mint order: identical sampled set and ids" a b;
  let sampled = List.filter Option.is_some a in
  Alcotest.(check bool)
    "a 5% coin over 2000 mints samples something" true
    (List.length sampled > 0);
  Alcotest.(check bool)
    "...but not everything" true
    (List.length sampled < 2000);
  let zero = Trace_ctx.make_sampler ~rate:0.0 ~seed:42 () in
  Alcotest.(check bool)
    "rate 0 samples nothing" true
    (List.for_all Option.is_none (decisions zero 500));
  let one = Trace_ctx.make_sampler ~rate:1.0 ~seed:42 () in
  Alcotest.(check bool)
    "rate 1 samples everything" true
    (List.for_all Option.is_some (decisions one 500));
  Alcotest.(check int) "every flip counts as minted" 500 (Trace_ctx.minted one);
  let other = decisions (Trace_ctx.make_sampler ~rate:0.05 ~seed:43 ()) 2000 in
  Alcotest.(check bool) "a different seed samples a different set" true
    (a <> other)

(* --- span drop accounting and the dropped trailer ------------------ *)

let test_span_dropped_trailer_roundtrip () =
  let path = Filename.temp_file "qnet_obs_drop" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Span.enable ~capacity:4 ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  for i = 1 to 10 do
    Span.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let spans = Span.drain () in
  let dropped = Span.dropped () in
  Alcotest.(check int) "ring of 4 keeps 4 of 10" 4 (List.length spans);
  Alcotest.(check int) "6 oldest dropped" 6 dropped;
  let by_domain = Span.dropped_by_domain () in
  Alcotest.(check int)
    "per-domain drops sum to the total" dropped
    (List.fold_left (fun acc (_, n) -> acc + n) 0 by_domain);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Span.write_jsonl ~dropped oc spans);
  match Span.read_jsonl path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok { Span.spans = back; malformed; dropped = d } ->
      Alcotest.(check int) "spans round-trip" 4 (List.length back);
      Alcotest.(check int) "trailer is not a malformed line" 0 malformed;
      Alcotest.(check int) "dropped count survives the file" 6 d

(* --- allocation/GC-pause profiler ---------------------------------- *)

module Prof = Qnet_obs.Prof

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains name hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" name needle hay

(* Keep the global profiler stopped between tests so the suite stays
   order-independent. *)
let with_prof f =
  Prof.stop ();
  Prof.start ();
  Fun.protect ~finally:(fun () -> Prof.stop ()) f

(* Chain domains can overflow the ring together, so the drop counter
   must exist before any of them records: two domains forcing one lazy
   at once raise CamlinternalLazy.Undefined. This case runs before any
   other overflows the ring in this process. *)
let test_span_drop_counter_registered () =
  Span.enable ~capacity:1 ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  check_contains "registered by enable"
    (Metrics.to_prometheus Metrics.default)
    "qnet_trace_dropped_total"

(* Tracing and profiling share one phase primitive, so a run traced
   and profiled at once draws one tree: the ancestry path of every
   span is a profile site, and every site is a span's path. *)
let test_trace_and_profile_one_tree () =
  let net =
    Qnet_des.Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4)
      ~service_rate:5.0 ()
  in
  let rng = Qnet_prob.Rng.create ~seed:31 () in
  let _, _, store = Net_helpers.masked_store rng net 200 in
  let config =
    { Qnet_core.Stem.default_config with Qnet_core.Stem.iterations = 6; burn_in = 3 }
  in
  Span.enable ();
  let spans =
    Fun.protect ~finally:Span.disable (fun () ->
        with_prof (fun () -> ignore (Qnet_core.Stem.run ~config rng store));
        Span.drain ())
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec path s =
    match Option.bind s.Span.parent (Hashtbl.find_opt by_id) with
    | Some p -> path p ^ ";" ^ s.Span.name
    | None -> s.Span.name
  in
  let span_paths = List.sort_uniq compare (List.map path spans) in
  let site_paths =
    List.sort_uniq compare (List.map (fun r -> r.Prof.path) (Prof.sites ()))
  in
  Alcotest.(check (list string)) "span paths are the profile's sites" span_paths
    site_paths;
  Alcotest.(check (list string))
    "the tree"
    [
      "stem.run";
      "stem.run;init.feasible";
      "stem.run;stem.iteration";
      "stem.run;stem.iteration;gibbs.sweep";
      "stem.run;stem.iteration;stem.loglik";
      "stem.run;stem.iteration;stem.mstep";
      "stem.run;stem.warmup";
      "stem.run;stem.warmup;gibbs.sweep";
    ]
    span_paths

let test_prof_off_by_default () =
  Prof.stop ();
  let before = Prof.stats () in
  Alcotest.(check bool) "not running" false before.Prof.is_running;
  (* Every gated entry point must be a pure pass-through when off. *)
  let r = Span.with_span "off.phase" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes the value through" 42 r;
  Prof.record_site ~stack:[ "ghost" ] ~bytes:1024.0 ~self_seconds:0.0;
  Prof.record_pause Prof.Minor 0.5;
  let after = Prof.stats () in
  Alcotest.(check int) "no pauses recorded" before.Prof.pauses_recorded
    after.Prof.pauses_recorded;
  Alcotest.(check int) "no site rows added" before.Prof.site_rows
    after.Prof.site_rows

let find_site path =
  match List.find_opt (fun r -> String.equal r.Prof.path path) (Prof.sites ()) with
  | Some r -> r
  | None -> Alcotest.failf "no site row for %s" path

let test_prof_phase_accounting () =
  with_prof (fun () ->
      Alcotest.(check bool) "running" true (Prof.running ());
      let keep =
        Span.with_span "outer" (fun () ->
            Span.with_span "inner" (fun () -> Array.make 100_000 0.0))
      in
      Alcotest.(check int) "computation intact" 100_000 (Array.length keep);
      (* the 100k-float array (~800KB) must land on the inner phase,
         and the outer phase's SELF bytes must exclude it *)
      let inner = find_site "outer;inner" and outer = find_site "outer" in
      Alcotest.(check bool)
        (Printf.sprintf "inner holds the array (%.0f bytes)" inner.Prof.bytes)
        true
        (inner.Prof.bytes >= 800_000.0 && inner.Prof.bytes < 4_000_000.0);
      Alcotest.(check bool)
        (Printf.sprintf "outer self excludes it (%.0f bytes)" outer.Prof.bytes)
        true
        (outer.Prof.bytes >= 0.0 && outer.Prof.bytes < 200_000.0);
      Alcotest.(check bool) "session-wide bytes cover the array" true
        (Prof.allocated_bytes () >= 800_000.0))

(* Small blocks sit in the minor heap until a collection; a phase that
   ends before one must still be charged for them. *)
let test_prof_phase_bytes_exact () =
  with_prof (fun () ->
      let blocks = 4096 in
      Gc.minor ();
      let minors0 = (Gc.quick_stat ()).Gc.minor_collections in
      let kept =
        Span.with_span "small" (fun () ->
            List.init blocks (fun i -> [| float_of_int i |]))
      in
      Alcotest.(check int) "no collection inside the phase" minors0
        (Gc.quick_stat ()).Gc.minor_collections;
      (* a cons cell (3 words) and a one-float array (2) per block *)
      let floor = float_of_int (blocks * 5 * (Sys.word_size / 8)) in
      let small = find_site "small" in
      Alcotest.(check bool)
        (Printf.sprintf "phase bytes %.0f >= %.0f allocated" small.Prof.bytes floor)
        true (small.Prof.bytes >= floor);
      ignore (Sys.opaque_identity kept))

(* The session's GC delta holds at least what its phases allocated,
   even when no collection falls inside it: start and stop each force a
   minor collection before they read the counters. *)
let test_prof_gc_bytes_cover_sites () =
  (* an empty minor heap, so that no collection falls inside the session *)
  Gc.minor ();
  with_prof (fun () ->
      (* a cons cell and a one-float array per block: 164 KB, far below
         the minor heap *)
      let kept =
        Span.with_span "small" (fun () -> List.init 4096 (fun i -> [| float_of_int i |]))
      in
      ignore (Sys.opaque_identity kept));
  let sites = List.fold_left (fun acc r -> acc +. r.Prof.bytes) 0.0 (Prof.sites ()) in
  Alcotest.(check bool) "the phase allocated" true (sites > 0.0);
  let gc = Prof.allocated_bytes () in
  if gc < sites then
    Alcotest.failf "gc.allocated_bytes %.0f is below the site table's %.0f" gc sites

let test_prof_folded_golden () =
  with_prof (fun () ->
      Prof.record_site ~stack:[ "a b"; "x;y"; "" ] ~bytes:1024.0 ~self_seconds:0.0;
      Prof.record_site ~stack:[ "root" ] ~bytes:2048.0 ~self_seconds:0.0;
      Prof.record_site ~stack:[ "a b"; "x;y"; "" ] ~bytes:1024.0 ~self_seconds:0.0;
      Prof.record_site ~stack:[ "zero" ] ~bytes:0.0 ~self_seconds:0.0;
      Prof.record_site ~stack:[ "bad" ] ~bytes:Float.nan ~self_seconds:0.0;
      Prof.record_site ~stack:[ "neg" ] ~bytes:(-5.0) ~self_seconds:0.0;
      (* sanitized (spaces -> _, ';' -> ':', "" -> (anonymous)),
         identical stacks merged, zero/non-finite/negative dropped,
         deterministically sorted by stack *)
      Alcotest.(check (list (pair string int)))
        "folded golden"
        [ ("a_b;x:y;(anonymous)", 2048); ("root", 2048) ]
        (Prof.to_folded ()))

let test_prof_pause_buckets () =
  with_prof (fun () ->
      let base = (Prof.stats ()).Prof.pauses_recorded in
      Prof.record_pause Prof.Minor 1e-6;
      (* exactly on the first SLO bucket edge *)
      Prof.record_pause Prof.Minor 1e-9;
      (* below the ladder: clamps into the first bucket *)
      Prof.record_pause Prof.Minor (-3.0);
      (* negative clamps to 0 *)
      Prof.record_pause Prof.Major 1000.0;
      (* beyond the ladder: p99 clamps to the top edge *)
      Prof.record_pause Prof.Compaction 0.25;
      let summary = Prof.pause_summary () in
      (match summary with
      | [ (Prof.Minor, mi); (Prof.Major, ma); (Prof.Compaction, co) ] ->
          Alcotest.(check int) "three minor pauses" 3 mi.Prof.count;
          Alcotest.(check bool) "minor p99 in the microsecond decade" true
            (mi.Prof.p99_s <= 1e-5 +. 1e-12);
          Alcotest.(check int) "one major pause" 1 ma.Prof.count;
          Alcotest.(check bool)
            (Printf.sprintf "major p99 clamps to the 100s top edge (%g)"
               ma.Prof.p99_s)
            true
            (Float.is_finite ma.Prof.p99_s && ma.Prof.p99_s <= 100.0 +. 1e-9);
          Alcotest.(check int) "one compaction pause" 1 co.Prof.count;
          Alcotest.(check bool) "compaction p50 near 0.25s" true
            (co.Prof.p50_s >= 0.1 && co.Prof.p50_s <= 1.0)
      | _ -> Alcotest.fail "pause_summary is not [Minor; Major; Compaction]");
      Alcotest.(check int) "stats counts the recorded pauses" (base + 5)
        ((Prof.stats ()).Prof.pauses_recorded))

(* The integer after the first ["key":] in a snapshot. *)
let json_int json key =
  let needle = "\"" ^ key ^ "\":" in
  let n = String.length needle in
  let rec find i = if String.sub json i n = needle then i + n else find (i + 1) in
  let i = find 0 in
  Scanf.sscanf (String.sub json i (String.length json - i)) "%d" Fun.id

let pause_count kind = (List.assoc kind (Prof.pause_summary ())).Prof.count

(* Forced collections on one domain: every one is paired on the main
   ring, whatever the minor heap size, and nothing is lost. *)
let test_prof_pauses_exact () =
  with_prof (fun () ->
      Gc.minor ();
      Gc.full_major ();
      Gc.compact ());
  let snap = Prof.snapshot_json () in
  let minors = json_int snap "minor_collections" in
  Alcotest.(check bool) "the session collected" true (minors > 0);
  Alcotest.(check int) "one minor pause per minor collection" minors
    (pause_count Prof.Minor);
  Alcotest.(check bool) "major slices paused" true (pause_count Prof.Major >= 1);
  Alcotest.(check int) "one compaction pause" 1 (pause_count Prof.Compaction);
  Alcotest.(check int) "no lost events" 0 (Prof.stats ()).Prof.lost_events;
  check_contains "pause data available" snap "\"available\":true";
  (* a second session right after counts only its own collections *)
  with_prof (fun () ->
      Gc.minor ();
      Gc.minor ());
  let snap = Prof.snapshot_json () in
  let minors = json_int snap "minor_collections" in
  Alcotest.(check bool) "two explicit minors" true (minors >= 2);
  Alcotest.(check int) "second session's own minors only" minors
    (pause_count Prof.Minor);
  Alcotest.(check int) "no compaction in the second session" 0
    (pause_count Prof.Compaction)

(* An explicit compaction is reported on the calling domain's ring
   only, so counting one from a spawned domain proves that ring is
   read; every other collection pauses both domains, each on its own
   ring. *)
let test_prof_pauses_other_domain () =
  with_prof (fun () -> Domain.join (Domain.spawn (fun () -> Gc.compact ())));
  let minors = json_int (Prof.snapshot_json ()) "minor_collections" in
  Alcotest.(check int) "the spawned domain's compaction" 1
    (pause_count Prof.Compaction);
  Alcotest.(check bool)
    (Printf.sprintf "both rings report minor pauses (%d for %d collections)"
       (pause_count Prof.Minor) minors)
    true
    (pause_count Prof.Minor > minors);
  Alcotest.(check int) "no lost events" 0 (Prof.stats ()).Prof.lost_events

let test_prof_snapshot_json () =
  (* Jsonx.parse_object only descends two levels, so the snapshot is
     checked by substring, the same way the verify scripts consume it. *)
  with_prof (fun () ->
      ignore (Span.with_span "snap.phase" (fun () -> Array.make 50_000 0.0));
      Prof.record_pause Prof.Minor 0.002;
      let live = Prof.snapshot_json () in
      check_contains "running" live "\"running\":true";
      check_contains "alloc block" live "\"alloc\":{\"total_bytes\":";
      check_contains "pause block" live "\"minor\":{\"count\":";
      check_contains "major cycle block" live "\"major_cycle\":{\"count\":";
      check_contains "lost events" live "\"lost_events\":";
      check_contains "gc deltas" live "\"minor_collections\":";
      check_contains "domains rollup" live "\"domains\":[");
  (* stop is idempotent and the data stays readable after it *)
  Prof.stop ();
  Prof.stop ();
  let stopped = Prof.snapshot_json () in
  check_contains "stopped" stopped "\"running\":false";
  check_contains "site table survives stop" stopped "\"stack\":\"";
  Alcotest.(check bool) "folded survives stop" true (Prof.to_folded () <> [])

let test_prof_restart_clears () =
  with_prof (fun () -> Prof.record_site ~stack:[ "old" ] ~bytes:512.0 ~self_seconds:0.0);
  Alcotest.(check bool) "data readable after stop" true
    (List.mem_assoc "old" (Prof.to_folded ()));
  with_prof (fun () ->
      Alcotest.(check (list (pair string int)))
        "restart clears the previous session" [] (Prof.to_folded ()))

let test_prof_start_while_running () =
  with_prof (fun () ->
      Prof.record_site ~stack:[ "kept" ] ~bytes:512.0 ~self_seconds:0.0;
      Prof.start ();
      Alcotest.(check bool) "still running" true (Prof.running ());
      Alcotest.(check bool) "the session's data survives" true
        (List.mem_assoc "kept" (Prof.to_folded ())))

let test_prof_rusage () =
  match Prof.Rusage.sample () with
  | None ->
      if Sys.os_type = "Unix" && Sys.file_exists "/proc/self/stat" then
        Alcotest.fail "rusage unavailable despite /proc"
  | Some r ->
      Alcotest.(check bool) "rss positive" true (r.Prof.Rusage.rss_bytes > 0.0);
      Alcotest.(check bool) "peak >= current rss" true
        (r.Prof.Rusage.max_rss_bytes >= r.Prof.Rusage.rss_bytes);
      Alcotest.(check bool) "cpu times non-negative" true
        (r.Prof.Rusage.utime_s >= 0.0 && r.Prof.Rusage.stime_s >= 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics-concurrency",
        [
          Alcotest.test_case "counter: N domains, exact total" `Quick
            test_counter_domains;
          Alcotest.test_case "counter: weighted increments exact" `Quick
            test_counter_by_domains;
          Alcotest.test_case "histogram: N domains, exact buckets" `Quick
            test_histogram_domains;
        ] );
      ( "metrics-registry",
        [
          Alcotest.test_case "idempotent handles" `Quick test_idempotent_handles;
          Alcotest.test_case "kind conflict rejected" `Quick test_kind_conflict;
          Alcotest.test_case "name/label/increment validation" `Quick test_validation;
          Alcotest.test_case "gauge set/add" `Quick test_gauge;
          Alcotest.test_case "histogram NaN quarantine" `Quick test_histogram_nan;
          Alcotest.test_case "histogram bucket boundaries (SLO ladder)" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "histogram batched observe_n" `Quick
            test_histogram_observe_n;
          Alcotest.test_case "histogram quantile interpolation" `Quick
            test_histogram_quantile;
        ] );
      ( "trace-sampling",
        [
          Alcotest.test_case "deterministic head-based sampling" `Quick
            test_trace_sampling_determinism;
        ] );
      ( "metrics-export",
        [
          Alcotest.test_case "Prometheus text matches golden file" `Quick
            test_prometheus_golden;
          Alcotest.test_case "JSONL lines parse" `Quick test_jsonl_parses;
        ] );
      ( "spans",
        [
          Alcotest.test_case "enable registers the drop counter" `Quick
            test_span_drop_counter_registered;
          Alcotest.test_case "nesting and parent ids" `Quick test_span_nesting;
          Alcotest.test_case "recorded on exception" `Quick test_span_exception_safe;
          Alcotest.test_case "ring overflow drops oldest" `Quick
            test_span_ring_overflow;
          Alcotest.test_case "disabled tracer records nothing" `Quick
            test_span_disabled_is_free;
          Alcotest.test_case "JSON roundtrip" `Quick test_span_json_roundtrip;
          Alcotest.test_case "read_jsonl skips malformed lines" `Quick
            test_read_jsonl_malformed;
          Alcotest.test_case "read_jsonl survives truncated/corrupt tails" `Quick
            test_read_jsonl_truncated;
          Alcotest.test_case "summary: self time and coverage" `Quick test_summary;
          Alcotest.test_case "drop accounting and dropped trailer" `Quick
            test_span_dropped_trailer_roundtrip;
        ] );
      ( "folded-stacks",
        [
          Alcotest.test_case "self time, sanitization, orphans, zero-drop" `Quick
            test_folded_stacks;
          Alcotest.test_case "identical stacks aggregate" `Quick
            test_folded_merges_identical_stacks;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "snapshot: R-hat, ESS, bottleneck, convergence" `Quick
            test_diag_snapshot;
          Alcotest.test_case "non-finite iterates skipped and counted" `Quick
            test_diag_nonfinite_skipped;
          Alcotest.test_case "queue-count change rejected" `Quick
            test_diag_dimension_mismatch;
          Alcotest.test_case "reset drops state, hub reusable" `Quick test_diag_reset;
          Alcotest.test_case "sink lines and snapshot JSON parse" `Quick
            test_diag_sink_and_json;
          Alcotest.test_case "publish refreshes qnet_diag_* gauges" `Quick
            test_diag_publish_gauges;
          Alcotest.test_case "gc_tick folds allocation deltas" `Quick
            test_diag_gc_tick;
          Alcotest.test_case "gc_tick counts the minor heap" `Quick
            test_diag_gc_tick_minor_heap;
          Alcotest.test_case "register_metrics matches golden present-zeros scrape"
            `Quick test_diag_register_golden;
        ] );
      ( "prof",
        [
          Alcotest.test_case "off by default: pure pass-through" `Quick
            test_prof_off_by_default;
          Alcotest.test_case "exact phase accounting" `Quick
            test_prof_phase_accounting;
          Alcotest.test_case "phase bytes below the minor heap" `Quick
            test_prof_phase_bytes_exact;
          Alcotest.test_case "session bytes cover the site table" `Quick
            test_prof_gc_bytes_cover_sites;
          Alcotest.test_case "folded export golden" `Quick
            test_prof_folded_golden;
          Alcotest.test_case "pause ladder edges and clamps" `Quick
            test_prof_pause_buckets;
          Alcotest.test_case "snapshot JSON shape, stop idempotent" `Quick
            test_prof_snapshot_json;
          Alcotest.test_case "restart clears the previous session" `Quick
            test_prof_restart_clears;
          Alcotest.test_case "start while running is a no-op" `Quick
            test_prof_start_while_running;
          Alcotest.test_case "pauses match forced collections" `Quick
            test_prof_pauses_exact;
          Alcotest.test_case "spawned domain's ring is read" `Quick
            test_prof_pauses_other_domain;
          Alcotest.test_case "rusage sample" `Quick test_prof_rusage;
          Alcotest.test_case "a traced, profiled run draws one tree" `Quick
            test_trace_and_profile_one_tree;
        ] );
      ( "metrics-server",
        [
          Alcotest.test_case "scrape /metrics, /healthz, 404, 405" `Quick
            test_metrics_server;
          Alcotest.test_case "stop is idempotent and releases the port" `Quick
            test_metrics_server_stop_idempotent;
          Alcotest.test_case "port collision: typed error, ephemeral fallback"
            `Quick test_bind_collision_typed_error;
          Alcotest.test_case "invalid host: typed `Bad_host" `Quick
            test_bad_host_typed_error;
        ] );
    ]
