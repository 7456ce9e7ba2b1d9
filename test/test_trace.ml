(* Tests for trace construction, statistics, and serialization. *)

module Trace = Qnet_trace.Trace
module Decimal = Qnet_trace.Decimal
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let ev task state queue arrival departure =
  { Trace.task; state; queue; arrival; departure }

(* two tasks through q0 -> q1; handcrafted FIFO-consistent times *)
let small_trace () =
  Trace.create ~num_queues:2
    [
      ev 0 0 0 0.0 1.0;
      (* task 0 enters at 1.0 *)
      ev 0 1 1 1.0 2.0;
      (* served 1.0 - 2.0 *)
      ev 1 0 0 0.0 1.5;
      ev 1 1 1 1.5 3.0;
      (* waits behind task 0 until 2.0, serves 1.0 *)
    ]

let test_create_valid () =
  let t = small_trace () in
  Alcotest.(check int) "tasks" 2 t.Trace.num_tasks;
  Alcotest.(check int) "events" 4 (Array.length t.Trace.events)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_create_rejects_bad_input () =
  expect_invalid "queue out of range" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 1 0.0 1.0 ]);
  expect_invalid "departure before arrival" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 1.0 0.5 ]);
  expect_invalid "no initial event" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 1.0 2.0 ]);
  expect_invalid "broken chain" (fun () ->
      Trace.create ~num_queues:2 [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.5 2.0 ]);
  expect_invalid "negative arrival" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 (-1.0) 1.0 ]);
  expect_invalid "NaN" (fun () -> Trace.create ~num_queues:1 [ ev 0 0 0 0.0 nan ])

let test_tasks_and_grouping () =
  let t = small_trace () in
  Alcotest.(check (array int)) "task ids" [| 0; 1 |] (Trace.tasks t);
  let e0 = Trace.events_of_task t 0 in
  Alcotest.(check int) "task 0 events" 2 (Array.length e0);
  check_close "first is initial" 0.0 e0.(0).Trace.arrival

let test_queue_events_order () =
  let t = small_trace () in
  let q1 = Trace.queue_events t 1 in
  Alcotest.(check int) "count" 2 (Array.length q1);
  Alcotest.(check int) "first arrival first" 0 q1.(0).Trace.task;
  Alcotest.(check int) "second arrival second" 1 q1.(1).Trace.task

let test_service_and_waiting () =
  let t = small_trace () in
  let s = Trace.service_times t 1 in
  let w = Trace.waiting_times t 1 in
  check_close "task0 service" 1.0 s.(0);
  check_close "task0 waiting" 0.0 w.(0);
  check_close "task1 service" 1.0 s.(1);
  check_close "task1 waits for task0" 0.5 w.(1)

let test_q0_service_is_interarrival () =
  let t = small_trace () in
  let s = Trace.service_times t 0 in
  (* all q0 arrivals are at 0; FIFO order by departure: gaps 1.0, 0.5 *)
  check_close "first gap" 1.0 s.(0);
  check_close "second gap" 0.5 s.(1)

let test_response_times () =
  let t = small_trace () in
  let r = Trace.response_times t 1 in
  check_close "task0 response" 1.0 r.(0);
  check_close "task1 response" 1.5 r.(1)

let test_span_and_utilization () =
  let t = small_trace () in
  let lo, hi = Trace.span t in
  check_close "span lo" 0.0 lo;
  check_close "span hi" 3.0 hi;
  (* q1 busy 1.0-2.0 and 2.0-3.0 = 2.0 of 3.0 *)
  check_close "utilization" (2.0 /. 3.0) (Trace.utilization t 1)

let test_csv_roundtrip () =
  let t = small_trace () in
  let csv = Trace.to_csv t in
  match Trace.of_csv ~num_queues:2 csv with
  | Error m -> Alcotest.fail m
  | Ok t' ->
      Alcotest.(check int) "tasks" t.Trace.num_tasks t'.Trace.num_tasks;
      Array.iteri
        (fun i e ->
          let e' = t'.Trace.events.(i) in
          Alcotest.(check int) "task" e.Trace.task e'.Trace.task;
          Alcotest.(check int) "queue" e.Trace.queue e'.Trace.queue;
          check_close "arrival" e.Trace.arrival e'.Trace.arrival;
          check_close "departure" e.Trace.departure e'.Trace.departure)
        t.Trace.events

let test_csv_rejects_garbage () =
  (match Trace.of_csv ~num_queues:1 "task,state,queue,arrival,departure\n1,2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace.of_csv ~num_queues:1 "task,state,queue,arrival,departure\na,b,c,d,e\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_csv_file_roundtrip () =
  let t = small_trace () in
  let path = Filename.temp_file "qnet_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      match Trace.load ~num_queues:2 path with
      | Error m -> Alcotest.fail m
      | Ok t' -> Alcotest.(check int) "events" 4 (Array.length t'.Trace.events))

let test_load_missing_file () =
  match Trace.load ~num_queues:1 "/nonexistent/path.csv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file"

let test_pp_summary_runs () =
  let t = small_trace () in
  let s = Format.asprintf "%a" Trace.pp_summary t in
  Alcotest.(check bool) "mentions tasks" true
    (String.length s > 0
    && String.length s > 10)

(* Lenient-ingestion edge cases: the stream boundary sees empty
   files, Windows line endings, and files cut mid-write. Quarantine
   counts are pinned — a drop must stay visible in the report. *)

let clean_csv =
  "task,state,queue,arrival,departure\n\
   0,0,0,0,1\n\
   0,1,1,1,2\n\
   1,0,0,0,1.5\n\
   1,1,1,1.5,3\n"

let test_lenient_empty_file () =
  match Trace.of_csv_lenient ~num_queues:2 "" with
  | Ok _ -> Alcotest.fail "an empty file has no usable events"
  | Error report ->
      Alcotest.(check int) "lines read" 0 report.Trace.lines_read;
      Alcotest.(check int) "nothing dropped" 0 report.Trace.events_dropped;
      Alcotest.(check int) "nothing kept" 0 report.Trace.events_kept

let test_lenient_crlf () =
  let crlf = String.concat "\r\n" (String.split_on_char '\n' clean_csv) in
  match Trace.of_csv_lenient ~num_queues:2 crlf with
  | Error _ -> Alcotest.fail "CRLF input must parse"
  | Ok (t, report) ->
      Alcotest.(check int) "events" 4 (Array.length t.Trace.events);
      Alcotest.(check int) "nothing quarantined" 0 report.Trace.events_dropped;
      Alcotest.(check int) "no errors" 0 (List.length report.Trace.errors)

let test_lenient_no_final_newline () =
  (* a complete final line without the trailing newline is valid... *)
  let n = String.length clean_csv in
  (match Trace.of_csv_lenient ~num_queues:2 (String.sub clean_csv 0 (n - 1)) with
  | Error _ -> Alcotest.fail "missing final newline must parse"
  | Ok (t, report) ->
      Alcotest.(check int) "events" 4 (Array.length t.Trace.events);
      Alcotest.(check int) "nothing quarantined" 0 report.Trace.events_dropped);
  (* ...a final line cut mid-field is quarantined, exactly once *)
  let truncated =
    "task,state,queue,arrival,departure\n0,0,0,0,1\n0,1,1,1,2\n1,0,0,0,1.5\n1,1,1,1."
  in
  match Trace.of_csv_lenient ~num_queues:2 truncated with
  | Error _ -> Alcotest.fail "survivors exist; must not reject the file"
  | Ok (t, report) ->
      Alcotest.(check int) "survivors" 3 (Array.length t.Trace.events);
      Alcotest.(check int) "one quarantined" 1 report.Trace.events_dropped;
      Alcotest.(check int) "one error" 1 (List.length report.Trace.errors)

(* Parser goldens: the bits of everything [of_csv] returns, on traces
   written by [to_csv]. The feedback trace's task ids are renumbered to
   descending values in the old event order, so its text lists tasks
   out of (task, arrival) order and [create] must sort it. *)
let trace_bits t =
  let b = Buffer.create 4096 in
  let add_int k = Buffer.add_string b (string_of_int k); Buffer.add_char b ',' in
  let add_bits x = add_int (Int64.to_int (Int64.bits_of_float x)) in
  add_int t.Trace.num_tasks;
  Array.iter
    (fun e ->
      add_int e.Trace.task;
      add_int e.Trace.state;
      add_int e.Trace.queue;
      add_bits e.Trace.arrival;
      add_bits e.Trace.departure)
    t.Trace.events;
  Buffer.contents b

let trace_digest t = Digest.to_hex (Digest.string (trace_bits t))

let golden_inputs () =
  let simulate net seed tasks = Net_helpers.simulate_n (Rng.create ~seed ()) net tasks in
  let tandem =
    simulate (Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ]) 601 300
  in
  let three_tier =
    simulate
      (Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ())
      602 2632
  in
  let feedback =
    let t =
      simulate (Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4) 603 200
    in
    {
      t with
      Trace.events =
        Array.map (fun e -> { e with Trace.task = 50 - (7 * e.Trace.task) }) t.Trace.events;
    }
  in
  [ ("tandem", tandem); ("three-tier 1-2-4", three_tier); ("feedback, ids descending", feedback) ]

let test_golden_parse () =
  let expected =
    [
      ("tandem", "9ca62c5a2fd84830a3dd9957ff0cb7e7");
      ("three-tier 1-2-4", "fc27c21475d2322eec5673846b0eacd3");
      ("feedback, ids descending", "b2dfb2a1ee8141fad5760859cb10c376");
    ]
  in
  List.iter
    (fun (name, t) ->
      let num_queues = t.Trace.num_queues and csv = Trace.to_csv t in
      let source = Trace.create ~num_queues (Array.to_list t.Trace.events) in
      Alcotest.(check string) (name ^ ", source") (List.assoc name expected) (trace_digest source);
      (match Trace.of_csv ~num_queues csv with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok parsed -> Alcotest.(check string) name (List.assoc name expected) (trace_digest parsed));
      match Trace.of_csv_lenient ~num_queues csv with
      | Error _ -> Alcotest.failf "%s: lenient parse failed" name
      | Ok (parsed, _) ->
          Alcotest.(check string) (name ^ ", lenient") (List.assoc name expected)
            (trace_digest parsed))
    (golden_inputs ())

(* An arrival takes the value its own text gives, whether or not that
   text is the previous departure's: "1.50", "15e-1" and "1.5" after a
   departure written "1.5" all read 1.5, in both parsers. *)
let test_arrival_text () =
  let csv =
    "task,state,queue,arrival,departure\n\
     0,0,0,0,1.5\n0,1,1,1.50,2.25\n0,2,2,2.25,3\n\
     1,0,0,0,1.5\n1,1,1,15e-1,3.5\n\
     2,0,0,0.0,1.5\n2,1,1,1.5,2\n"
  in
  let expected = [| (0.0, 1.5); (1.5, 2.25); (2.25, 3.0); (0.0, 1.5); (1.5, 3.5); (0.0, 1.5); (1.5, 2.0) |] in
  let check name t =
    Array.iteri
      (fun i (a, d) ->
        let e = t.Trace.events.(i) in
        let bits x = Int64.bits_of_float x in
        Alcotest.(check int64) (Printf.sprintf "%s: event %d arrival" name i) (bits a) (bits e.Trace.arrival);
        Alcotest.(check int64) (Printf.sprintf "%s: event %d departure" name i) (bits d) (bits e.Trace.departure))
      expected
  in
  (match Trace.of_csv ~num_queues:3 csv with
  | Ok t -> check "of_csv" t
  | Error m -> Alcotest.fail m);
  match Trace.of_csv_lenient ~num_queues:3 csv with
  | Ok (t, _) -> check "of_csv_lenient" t
  | Error _ -> Alcotest.fail "lenient parse failed"

(* Every malformed input below is rejected with exactly this message:
   the first line that does not parse, numbered from 1 with blank lines
   counted, wins over any check [create] makes on the whole trace. *)
let malformed_corpus =
  let h = "task,state,queue,arrival,departure\n" in
  let ok_tail = "0,1,1,1,2\n1,0,0,0,1.5\n1,1,1,1.5,3\n" in
  let fields = "expected 5 comma-separated fields" in
  [
    (h ^ "1,2\n", "line 2: " ^ fields);
    (h ^ "a,b,c,d,e\n", "line 2: malformed fields");
    (h ^ "0,0,0,0\n" ^ ok_tail, "line 2: " ^ fields);
    (h ^ "0,0,0,0,1,1\n" ^ ok_tail, "line 2: " ^ fields);
    (h ^ "0,0,0,0,1,\n" ^ ok_tail, "line 2: " ^ fields);
    (h ^ ",0,0,0,1\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "0,0,0,,1\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "0,0,0,0,1e\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "0,0,0,0,1.5.\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "12345678901234567890,0,0,0,1\n", "line 2: malformed fields");
    (h ^ "4611686018427387904,0,0,0,1\n", "line 2: malformed fields");
    (h ^ "0x,0,0,0,1\n", "line 2: malformed fields");
    (h ^ "-,0,0,0,1\n", "line 2: malformed fields");
    (h ^ "0, 0,0,0,1\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "0,0,0,0 ,1\n" ^ ok_tail, "line 2: malformed fields");
    (h ^ "0,0 ,0,0,1\n" ^ ok_tail, "line 2: malformed fields");
    ("\n" ^ h ^ "0,0,0,0,1\n", "line 2: malformed fields");
    ("  " ^ h ^ "0,0,0,0,1\n", "line 1: malformed fields");
    (h ^ "0,0,0,0,nan\n", "Trace.create: NaN time");
    (h ^ "0,0,0,0,1\n0,1,1,1,.5\n", "Trace.create: departure 0.5 before arrival 1 (task 0)");
    (h ^ "0,0,5,0,1\n", "Trace.create: queue 5 out of range [0,2)");
    ( h ^ "0,0,0,0,1\n0,1,1,1.25,2\n",
      "Trace.create: task 0 broken chain: arrival 1.25 <> previous departure 1" );
    (h ^ "0,0,0,0.5,1\n", "Trace.create: task 0 has no initial event at time 0");
    (h ^ "0,0,0,-1,1\n", "Trace.create: negative arrival time");
    (h ^ "0,0,9,0,1\n0,1,1,1,2\nx,0,0,0,1\n", "line 4: malformed fields");
    ( String.concat "\r\n" [ "task,state,queue,arrival,departure"; "0,0,0,0,1"; "0,1,1,1"; "" ],
      "line 3: " ^ fields );
    (h ^ "0,0,0,0,1\n0,1,1,1,2\n1,0,0,0,1.5\n1,1,1,1.5,3x", "line 5: malformed fields");
    ("\n   \n\t\n1,2\n", "line 4: " ^ fields);
    (h ^ "0,0,0,0,1\n\012\n0,1,1,1,2,\n", "line 4: " ^ fields);
  ]

let test_golden_parse_errors () =
  List.iter
    (fun (csv, expected) ->
      match Trace.of_csv ~num_queues:2 csv with
      | Ok _ -> Alcotest.failf "accepted %S" csv
      | Error m -> Alcotest.(check string) (Printf.sprintf "%S" csv) expected m)
    malformed_corpus

(* The ceiling [make bench] gates as MAX_PARSE_BPE, on the ~10k-event
   golden trace: the parser allocates 72 B per event (the record, its
   array slot and the departure's float box; an arrival shares its
   predecessor's departure box and a time of 0 a constant). Boxing
   every arrival took 84 B, reading the float fields from substrings
   156 B, the split-based parser 488 B. *)
let test_parse_allocation () =
  let t = List.assoc "three-tier 1-2-4" (golden_inputs ()) in
  let csv = Trace.to_csv t in
  let w0 = Qnet_obs.Prof.allocated_words () in
  ignore (Sys.opaque_identity (Trace.of_csv ~num_queues:t.Trace.num_queues csv));
  let per_event =
    (Qnet_obs.Prof.allocated_words () -. w0)
    *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Array.length t.Trace.events)
  in
  if per_event > 80.0 then
    Alcotest.failf "of_csv allocated %.1f B per event (budget 80)" per_event

(* [Trace.create] as three walks of the events: the order test, the
   per-event checks, then the chain checks. The one-pass checks replaced
   it; it is kept verbatim as their oracle. *)
let three_pass_create ~num_queues events =
  let events = Array.of_list events in
  let chain_tolerance = 1e-9 in
  let compare_task_arrival a b =
    match compare a.Trace.task b.Trace.task with
    | 0 -> (
        match compare a.Trace.arrival b.Trace.arrival with
        | 0 -> compare a.Trace.departure b.Trace.departure
        | c -> c)
    | c -> c
  in
  let n = Array.length events in
  let rec increasing i =
    i >= n || (compare_task_arrival events.(i - 1) events.(i) < 0 && increasing (i + 1))
  in
  if not (increasing 1) then Array.sort compare_task_arrival events;
  Array.iter
    (fun e ->
      let open Trace in
      if e.queue < 0 || e.queue >= num_queues then
        invalid_arg
          (Printf.sprintf "Trace.create: queue %d out of range [0,%d)" e.queue num_queues);
      if Float.is_nan e.arrival || Float.is_nan e.departure then
        invalid_arg "Trace.create: NaN time";
      if e.arrival < 0.0 then invalid_arg "Trace.create: negative arrival time";
      if e.departure < e.arrival -. chain_tolerance then
        invalid_arg
          (Printf.sprintf "Trace.create: departure %.12g before arrival %.12g (task %d)"
             e.departure e.arrival e.task))
    events;
  let num_tasks = ref 0 in
  let i = ref 0 in
  while !i < n do
    let task = events.(!i).Trace.task in
    incr num_tasks;
    let first = events.(!i) in
    if not (Float.equal first.Trace.arrival 0.0) then
      invalid_arg
        (Printf.sprintf "Trace.create: task %d has no initial event at time 0" task);
    let j = ref (!i + 1) in
    while !j < n && events.(!j).Trace.task = task do
      let prev = events.(!j - 1) and cur = events.(!j) in
      if Float.abs (cur.Trace.arrival -. prev.Trace.departure) > chain_tolerance then
        invalid_arg
          (Printf.sprintf
             "Trace.create: task %d broken chain: arrival %.12g <> previous departure %.12g"
             task cur.Trace.arrival prev.Trace.departure);
      incr j
    done;
    i := !j
  done;
  { Trace.num_queues; num_tasks = !num_tasks; events }

(* Differential test of the parser. The oracle is the split-based
   [of_csv] the one-pass scanner replaced, kept verbatim but for its
   last step, the three-pass [create] above. *)
let oracle_of_csv ~num_queues text =
  let lines = String.split_on_char '\n' text in
  let parse_line lineno line =
    match String.split_on_char ',' (String.trim line) with
    | [ task; state; queue; arrival; departure ] -> (
        try
          Ok
            {
              Trace.task = int_of_string task;
              state = int_of_string state;
              queue = int_of_string queue;
              arrival = float_of_string arrival;
              departure = float_of_string departure;
            }
        with Failure _ -> Error (Printf.sprintf "line %d: malformed fields" lineno))
    | _ -> Error (Printf.sprintf "line %d: expected 5 comma-separated fields" lineno)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else if lineno = 1 && String.length line >= 4 && String.sub line 0 4 = "task" then
          go (lineno + 1) acc rest
        else begin
          match parse_line lineno line with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error msg -> Error msg
        end
  in
  match go 1 [] lines with
  | Error msg -> Error msg
  | Ok events -> (
      try Ok (three_pass_create ~num_queues events) with Invalid_argument msg -> Error msg)

let pick rng a = a.(Rng.int rng (Array.length a))

(* A double from anywhere: random bits (subnormals, NaNs and infinities
   included), a power of ten, or a short decimal. *)
let random_double rng =
  match Rng.int rng 4 with
  | 0 -> Int64.float_of_bits (Rng.bits64 rng)
  | 1 -> Int64.float_of_bits (Int64.shift_right_logical (Rng.bits64 rng) 12)
  | 2 -> 10.0 ** float_of_int (Rng.int rng 660 - 340)
  | _ -> Float.round (Rng.float_unit rng *. 1e5) /. 1000.0

let pow5 k =
  let p = ref 1L in
  for _ = 1 to k do
    p := Int64.mul !p 5L
  done;
  !p

(* A decimal exactly halfway between two adjacent doubles, which must
   round to the even one: an odd 54-bit integer times a power of two.
   For a decimal exponent q in [-4, -1] that is the odd integer times
   5^-q, with a point -q places from its end (17 to 20 digits); for q in
   [0, 23], an odd o whose o * 5^q has 54 bits, times 2^s for s < 6,
   written o·2^s e q (q = 0 gives the halfway integers in [2^53, 2^60);
   q = 23 and o = 1 gives 1e23). A quarter have their last digit moved
   by one, to a decimal just off the tie. *)
let halfway rng =
  let q = Rng.int rng 28 - 4 in
  let digits =
    if q < 0 then
      let odd =
        Int64.logor 1L
          (Int64.logor (Int64.shift_left 1L 53)
             (Int64.logand (Rng.bits64 rng) 0x1F_FFFF_FFFF_FFFFL))
      in
      Int64.mul odd (pow5 (-q))
    else
      let p = pow5 q in
      let lo = Int64.div (Int64.add (Int64.shift_left 1L 53) (Int64.pred p)) p in
      let hi = Int64.succ (Int64.div (Int64.pred (Int64.shift_left 1L 54)) p) in
      let o = Int64.add lo (Int64.unsigned_rem (Rng.bits64 rng) (Int64.sub hi lo)) in
      let o = if Int64.rem o 2L = 1L then o else if Int64.succ o < hi then Int64.succ o else Int64.pred o in
      Int64.shift_left o (Rng.int rng 6)
  in
  let digits =
    match Rng.int rng 8 with 0 -> Int64.succ digits | 1 -> Int64.pred digits | _ -> digits
  in
  let s = Printf.sprintf "%Lu" digits in
  let n = String.length s in
  if q < 0 then String.sub s 0 (n + q) ^ "." ^ String.sub s (n + q) (-q)
  else if q = 0 then s
  else Printf.sprintf "%se%d" s q

let float_specials =
  [| "nan"; "inf"; "-inf"; "infinity"; "1e400"; "-1e400"; "1e-400"; "1_000.5"; " 2.5"; ".5";
     "5."; "1e"; "+1.5"; "4.9e-324"; "2.2250738585072011e-308"; "1.7976931348623157e308";
     "1.7976931348623159e308"; "-0.0"; "0x1p-1074"; "1e22"; "1e23"; "0.1"; ""; "1.5x";
     "--1"; "1e+"; "0x"; "_1"; "1__0"; "1,5"; "2.5 "; "\t3"; "9007199254740993";
     "9007199254740995"; "4503599627370496.5"; "4503599627370497.5"; "2.0000000000000001";
     "0.10000000000000000555"; "123456789012345678901"; "1.00000000000000000000001";
     "9007199254740992.50000000000000000001" |]

(* The ways to write [x]: each keeps its value where float_of_string
   reads it, except the specials and the ties. *)
let float_text rng x =
  match Rng.int rng 26 with
  | 0 | 1 -> Printf.sprintf "%.3f" x
  | 2 | 3 -> Printf.sprintf "%e" x
  | 4 | 5 -> Printf.sprintf "%h" x
  | 6 | 7 -> Printf.sprintf "%.16e" x
  | 8 -> " " ^ Printf.sprintf "%.17g" x
  | 9 -> pick rng float_specials
  | 10 -> halfway rng
  | 11 -> Printf.sprintf "%.25g" x
  | _ -> Printf.sprintf "%.17g" x

let int_specials =
  [| "007"; "-0"; "+5"; "1_000"; "0x1F"; "0b101"; "0o17"; "0u5"; "123456789012345678";
     "-123456789012345678"; "1234567890123456789"; "9999999999999999999";
     "12345678901234567890"; string_of_int max_int; "4611686018427387904";
     string_of_int min_int; "-4611686018427387905"; ""; "-"; "1.0"; " 5"; "5 "; "0x"; "1e3" |]

let int_text rng k =
  match Rng.int rng 30 with
  | 0 -> "+" ^ string_of_int k
  | 1 -> "00" ^ string_of_int k
  | 2 -> if k >= 0 then Printf.sprintf "0x%x" k else string_of_int k
  | 3 -> pick rng int_specials
  | _ -> string_of_int k

(* A CSV of 1 to 6 one- or two-event tasks, valid before its fields
   are rewritten, in one of the line forms the scanner must cut as
   [String.split_on_char] and [String.trim] do. *)
let random_csv seed =
  let rng = Rng.create ~seed () in
  let lines = ref [] in
  let emit task state queue arrival departure =
    lines :=
      String.concat ","
        [ int_text rng task; int_text rng state; int_text rng queue; arrival; departure ]
      :: !lines
  in
  for task = 0 to Rng.int rng 6 do
    let d = if Rng.int rng 4 = 0 then random_double rng else Rng.float_unit rng *. 10.0 in
    emit task 0 0 (float_text rng 0.0) (float_text rng d);
    if Rng.bool rng then emit task 1 1 (float_text rng d) (float_text rng (d +. 1.0))
  done;
  let reshape line =
    match Rng.int rng 40 with
    | 0 -> String.sub line 0 (String.rindex line ',')
    | 1 -> line ^ ",1"
    | 2 -> line ^ ","
    | 3 -> " \t" ^ line ^ " "
    | 4 -> "\n" ^ line
    | 5 -> "  \n\012\n" ^ line
    | _ -> line
  in
  let body = List.rev_map reshape !lines in
  let header = "task,state,queue,arrival,departure" in
  let lines =
    match Rng.int rng 10 with
    | 0 | 1 -> body
    | 2 -> "" :: header :: body
    | 3 -> ("  " ^ header) :: body
    | _ -> header :: body
  in
  let eol = if Rng.int rng 4 = 0 then "\r\n" else "\n" in
  String.concat eol lines ^ if Rng.bool rng then eol else ""

let result_bits = function Ok t -> Ok (trace_bits t) | Error m -> Error m

let prop_parser_matches_oracle =
  QCheck.Test.make ~name:"of_csv ≡ split-based oracle" ~count:3000 QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let csv = random_csv seed in
      let expected = result_bits (oracle_of_csv ~num_queues:2 csv) in
      let got = result_bits (Trace.of_csv ~num_queues:2 csv) in
      if expected <> got then
        QCheck.Test.fail_reportf "seed %d, input %S:@ oracle %s@ of_csv %s" seed csv
          (match expected with Ok b -> b | Error m -> m)
          (match got with Ok b -> b | Error m -> m);
      true)

(* The canonical-line reader against the rest of the scanner. A small
   trace's [to_csv] text, whose every line the reader takes, gets one to
   three mutations of the kinds it must hand on or read alike: blanks at
   a line's ends or inside a field, a CR, a sign, 18 and 19 digits,
   leading zeros, an exponent, hex, an empty field, 3 and 5 commas, a
   header or a blank line in the middle, a control byte that is not a
   blank, a NaN, and an arrival written otherwise than its predecessor's
   departure. Strict mode must match the split-based oracle. Lenient
   mode must match itself on the same text with a blank before each
   line's first comma, which sends every line to [scan_line] and which
   it trims away. *)
let on_field rng ~fields f line =
  match String.split_on_char ',' line with
  | parts when List.length parts = 5 ->
      let k = pick rng fields in
      String.concat "," (List.mapi (fun i x -> if i = k then f x else x) parts)
  | _ -> line

let ints = [| 0; 1; 2 |]
let floats = [| 3; 4 |]
let any_field = [| 0; 1; 2; 3; 4 |]

let mutate rng line =
  match Rng.int rng 22 with
  | 0 -> [ " \t" ^ line ^ " " ]
  | 1 -> [ line ^ "\r" ]
  | 2 -> [ "\012" ^ line ^ "\t\t" ]
  | 3 -> [ on_field rng ~fields:ints (fun x -> (if Rng.bool rng then "+" else "-") ^ x) line ]
  | 4 -> [ on_field rng ~fields:ints (fun _ -> "1" ^ String.make 17 '0') line ]
  | 5 -> [ on_field rng ~fields:ints (fun _ -> "1" ^ String.make 18 '0') line ]
  | 6 -> [ on_field rng ~fields:ints (fun x -> "00" ^ x) line ]
  | 7 -> [ on_field rng ~fields:floats (fun x -> x ^ "e0") line ]
  | 8 ->
      [ on_field rng ~fields:ints
          (fun x -> match int_of_string_opt x with Some k -> Printf.sprintf "0x%x" k | None -> x)
          line ]
  | 9 ->
      [ on_field rng ~fields:floats
          (fun x -> match float_of_string_opt x with Some f -> Printf.sprintf "%h" f | None -> x)
          line ]
  | 10 -> [ on_field rng ~fields:any_field (fun _ -> "") line ]
  | 11 -> (
      match String.rindex_opt line ',' with Some k -> [ String.sub line 0 k ] | None -> [ line ])
  | 12 -> [ line ^ ",1" ]
  | 13 -> [ line ^ "," ]
  | 14 -> [ "task,state,queue,arrival,departure"; line ]
  | 15 -> [ pick rng [| ""; "  "; "\r" |]; line ]
  | 16 -> [ on_field rng ~fields:any_field (fun x -> if Rng.bool rng then x ^ " " else " " ^ x) line ]
  | 17 -> [ line ^ pick rng [| "\011"; "\013"; "\000" |] ]
  | 18 -> [ on_field rng ~fields:floats (fun _ -> "nan") line ]
  | 19 ->
      [ on_field rng ~fields:[| 3 |] (fun x -> if String.contains x '.' then x ^ "0" else x ^ ".0") line ]
  | 20 -> [ on_field rng ~fields:[| 3 |] (fun x -> x ^ "1") line ]
  | _ -> [ String.concat "," (List.rev (String.split_on_char ',' line)) ]

let mutated_csv seed =
  let rng = Rng.create ~seed () in
  let t =
    Net_helpers.simulate_n rng
      (Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ])
      (1 + Rng.int rng 8)
  in
  let t =
    if Rng.bool rng then t
    else { t with Trace.events = Array.map (fun e -> { e with Trace.task = 9 - e.Trace.task }) t.Trace.events }
  in
  let lines = Array.of_list (String.split_on_char '\n' (Trace.to_csv t)) in
  let pieces = Array.map (fun l -> [ l ]) lines in
  for _ = 0 to Rng.int rng 3 do
    let k = Rng.int rng (Array.length lines) in
    pieces.(k) <- List.concat_map (mutate rng) pieces.(k)
  done;
  let text = String.concat "\n" (List.concat (Array.to_list pieces)) in
  if Rng.int rng 4 = 0 && String.ends_with ~suffix:"\n" text then
    String.sub text 0 (String.length text - 1)
  else text

let slow_path text =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         match String.index_opt l ',' with
         | Some k -> String.sub l 0 k ^ " " ^ String.sub l k (String.length l - k)
         | None -> l)
  |> String.concat "\n"

let lenient_summary = function
  | Ok (t, r) -> (Some (trace_bits t), r)
  | Error r -> (None, r)

let show_lenient (bits, r) =
  Printf.sprintf "%s | read %d kept %d dropped %d tasks %d | %s"
    (Option.value bits ~default:"-") r.Trace.lines_read r.Trace.events_kept
    r.Trace.events_dropped r.Trace.tasks_dropped
    (String.concat "; "
       (List.map
          (fun e ->
            Printf.sprintf "%s %s %s %s"
              (match e.Trace.line with Some l -> string_of_int l | None -> "-")
              (match e.Trace.task_id with Some t -> string_of_int t | None -> "-")
              (Trace.corruption_label e.Trace.reason) e.Trace.detail)
          r.Trace.errors))

let prop_reader_matches_scanner =
  QCheck.Test.make ~name:"canonical reader ≡ scanner, every mutation" ~count:3000
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let csv = mutated_csv seed in
      let expected = result_bits (oracle_of_csv ~num_queues:3 csv) in
      let got = result_bits (Trace.of_csv ~num_queues:3 csv) in
      if expected <> got then
        QCheck.Test.fail_reportf "seed %d, input %S:@ oracle %s@ of_csv %s" seed csv
          (match expected with Ok b -> b | Error m -> m)
          (match got with Ok b -> b | Error m -> m);
      let lenient text = show_lenient (lenient_summary (Trace.of_csv_lenient ~num_queues:3 text)) in
      let expected = lenient (slow_path csv) and got = lenient csv in
      if expected <> got then
        QCheck.Test.fail_reportf "seed %d, input %S:@ scanner %s@ reader %s" seed csv expected got;
      true)

(* The newline count, 8 bytes at a time, against a byte loop: texts of
   0 to 80 bytes, drawn from newlines, 0x8a (a newline's low bits with
   the high bit set), 0x0b (a newline's neighbour) and random bytes,
   placed at every offset from 0 to 15 between random bytes. *)
let test_count_newlines () =
  let rng = Rng.create ~seed:611 () in
  let byte () =
    match Rng.int rng 4 with
    | 0 -> '\n'
    | 1 -> '\x8a'
    | 2 -> '\x0b'
    | _ -> Char.chr (Rng.int rng 256)
  in
  let count s lo hi =
    let n = ref 0 in
    for i = lo to hi - 1 do
      if s.[i] = '\n' then incr n
    done;
    !n
  in
  for len = 0 to 80 do
    for _ = 1 to 12 do
      let text = String.init len (fun _ -> byte ()) in
      for offset = 0 to 15 do
        let s =
          String.init offset (fun _ -> byte ()) ^ text ^ String.init (Rng.int rng 16) (fun _ -> byte ())
        in
        Alcotest.(check int)
          (Printf.sprintf "%S at %d" text offset)
          (count s offset (offset + len))
          (Trace.count_newlines s offset (offset + len));
        Alcotest.(check int) (Printf.sprintf "whole %S" s) (count s 0 (String.length s))
          (Trace.count_newlines s 0 (String.length s))
      done
    done
  done;
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises (Printf.sprintf "range %d %d" lo hi)
        (Invalid_argument "Trace.count_newlines")
        (fun () -> ignore (Trace.count_newlines "abc\n" lo hi)))
    [ (-1, 2); (3, 2); (0, 5) ]

(* [create]'s one walk against the three walks it replaced, on crafted
   traces where the precedence of its errors shows: a per-event error
   after an earlier chain error, one before it, a task without an
   initial event, chain errors of two kinds, an inversion that moves
   which error comes first, ties, a NaN, -0 entry times, and then on
   random edits of a simulated trace. The same trace to the bit (the
   same records in the same places) or the same error. *)
let create_outcome ~num_queues create events =
  match create ~num_queues events with
  | t -> Ok (t.Trace.num_tasks, Array.to_list t.Trace.events)
  | exception Invalid_argument m -> Error m

let check_create name ~num_queues events =
  let expected = create_outcome ~num_queues three_pass_create events in
  let got = create_outcome ~num_queues Trace.create events in
  match (expected, got) with
  | Error m, Error m' -> Alcotest.(check string) name m m'
  | Ok (k, es), Ok (k', es') ->
      Alcotest.(check int) (name ^ ": tasks") k k';
      Alcotest.(check int) (name ^ ": length") (List.length es) (List.length es');
      List.iteri (fun i (e, e') -> if not (e == e') then Alcotest.failf "%s: event %d moved" name i)
        (List.combine es es')
  | Error m, Ok _ -> Alcotest.failf "%s: accepted, oracle says %s" name m
  | Ok _, Error m -> Alcotest.failf "%s: rejected with %s" name m

let test_create_one_walk () =
  let crafted =
    [
      ("valid", [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0; ev 1 0 0 0.0 1.5; ev 1 1 1 1.5 3.0 ]);
      ( "bad queue after a broken chain",
        [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.25 2.0; ev 1 0 0 0.0 1.5; ev 1 1 7 1.5 3.0 ] );
      ( "bad queue before a broken chain",
        [ ev 0 0 0 0.0 1.0; ev 0 1 7 1.0 2.0; ev 1 0 0 0.0 1.5; ev 1 1 1 1.75 3.0 ] );
      ( "departure before arrival after a missing initial event",
        [ ev 0 0 0 0.5 1.0; ev 0 1 1 1.0 2.0; ev 1 0 0 0.0 1.5; ev 1 1 1 1.5 1.0 ] );
      ( "negative arrival after a broken chain",
        [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.5 2.0; ev 1 0 0 (-1.0) 1.5 ] );
      ("missing initial event", [ ev 0 0 0 0.0 1.0; ev 1 0 0 0.25 1.5; ev 1 1 1 1.5 3.0 ]);
      ( "missing initial event after a broken chain",
        [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.25 2.0; ev 1 0 0 0.25 1.5 ] );
      ( "broken chain after a missing initial event",
        [ ev 0 0 0 0.5 1.0; ev 1 0 0 0.0 1.5; ev 1 1 1 1.75 3.0 ] );
      ("first event not initial", [ ev 3 1 1 1.0 2.0 ]);
      ("NaN after a broken chain", [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.5 2.0; ev 1 0 0 0.0 Float.nan ]);
      ("NaN arrival", [ ev 0 0 0 Float.nan 1.0; ev 0 1 1 1.0 2.0 ]);
      ( "inversion that puts a chain error first",
        [ ev 1 0 0 0.0 1.5; ev 1 1 5 1.5 3.0; ev 0 0 0 0.0 1.0; ev 0 1 1 1.25 2.0 ] );
      ( "inversion that puts a bad queue first",
        [ ev 1 0 0 0.0 1.5; ev 1 1 1 1.75 3.0; ev 0 0 0 0.0 1.0; ev 0 1 6 1.0 2.0 ] );
      ( "inversion within a task",
        [ ev 0 1 1 1.0 2.0; ev 0 0 0 0.0 1.0; ev 0 2 2 2.0 3.0 ] );
      ( "ties kept in order",
        [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 1.0; ev 0 2 2 1.0 1.0; ev 0 3 1 1.0 2.0 ] );
      ( "ties out of order",
        [ ev 0 0 0 0.0 1.0; ev 0 3 1 1.0 2.0; ev 0 1 1 1.0 1.0; ev 0 2 2 1.0 1.0 ] );
      ( "-0 entry and arrival",
        [ ev 0 0 0 (-0.0) 0.0; ev 0 1 1 (-0.0) 1.0; ev 1 0 0 0.0 (-0.0); ev 1 1 1 0.0 2.0 ] );
      ("empty", []);
    ]
  in
  List.iter (fun (name, events) -> check_create name ~num_queues:3 events) crafted;
  let base =
    (Net_helpers.simulate_n (Rng.create ~seed:612 ())
       (Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ])
       40)
      .Trace.events
  in
  for seed = 1 to 400 do
    let rng = Rng.create ~seed:(6120 + seed) () in
    let a = Array.copy base in
    for _ = 0 to Rng.int rng 3 do
      let k = Rng.int rng (Array.length a) in
      let e = a.(k) in
      a.(k) <-
        (match Rng.int rng 8 with
        | 0 -> { e with Trace.queue = 3 + Rng.int rng 3 }
        | 1 -> { e with Trace.arrival = e.Trace.arrival +. 0.5 }
        | 2 -> { e with Trace.departure = Float.nan }
        | 3 -> { e with Trace.departure = e.Trace.arrival -. 1.0 }
        | 4 -> { e with Trace.task = e.Trace.task + 1 }
        | 5 -> { e with Trace.arrival = -1.0 }
        | 6 ->
            let j = Rng.int rng (Array.length a) in
            let f = a.(j) in
            a.(j) <- e;
            f
        | _ -> e)
    done;
    if Rng.int rng 4 = 0 then Rng.shuffle_in_place rng a;
    check_create (Printf.sprintf "seed %d" seed) ~num_queues:3 (Array.to_list a)
  done

(* Differential test of the float reader: [Decimal.float_of_substring]
   against [float_of_string] on the substring, the same bits or Failure
   from both. Each case sweeps every decimal exponent in [-360, 330]
   with a 1- to 19-digit mantissa, sometimes signed or with a point,
   then draws 160 more from the inputs random doubles never produce.
   Every string sits between random bytes that a reader going past its
   ends would take in. *)
let digit_string rng n = String.init n (fun _ -> Char.chr (48 + Rng.int rng 10))

let with_point rng digits =
  let n = String.length digits in
  if n < 2 || Rng.bool rng then digits
  else
    let k = 1 + Rng.int rng (n - 1) in
    String.sub digits 0 k ^ "." ^ String.sub digits k (n - k)

let signed rng s = if Rng.int rng 4 = 0 then "-" ^ s else s

let swept rng e = signed rng (with_point rng (digit_string rng (1 + Rng.int rng 19)) ^ "e" ^ string_of_int e)

(* Doubles at the subnormal, normal and overflow edges, written with
   1 to 19 digits, the last of them sometimes moved by one. *)
let boundary rng =
  let bits =
    match Rng.int rng 4 with
    | 0 -> Int64.of_int (1 + Rng.int rng 4096)
    | 1 -> Int64.add 0x000F_FFFF_FFFF_FF00L (Int64.of_int (Rng.int rng 512))
    | 2 -> Int64.sub 0x7FEF_FFFF_FFFF_FFFFL (Int64.of_int (Rng.int rng 512))
    | _ -> Int64.of_int (Rng.int rng 2)
  in
  let s = Printf.sprintf "%.*e" (Rng.int rng 19) (Int64.float_of_bits bits) in
  let e = String.index s 'e' in
  let nudge c = Char.chr (48 + ((Char.code c - 48 + if Rng.bool rng then 1 else 9) mod 10)) in
  if Rng.int rng 3 = 0 then
    String.mapi (fun k c -> if k = e - 1 && c <> '.' then nudge c else c) s
  else s

let long_mantissa rng =
  let s = with_point rng (digit_string rng (20 + Rng.int rng 21)) in
  let s = if Rng.bool rng then s else s ^ "e" ^ string_of_int (Rng.int rng 700 - 350) in
  signed rng s

let zeros rng =
  let z n = String.make n '0' in
  match Rng.int rng 5 with
  | 0 -> signed rng (pick rng [| "0"; "0.0"; "0e0"; "0.000e-400"; "000"; "0e999"; "00.00e+5" |])
  | 1 -> signed rng (z (Rng.int rng 30) ^ digit_string rng (1 + Rng.int rng 17))
  | 2 -> signed rng ("0." ^ z (Rng.int rng 400) ^ digit_string rng (1 + Rng.int rng 19))
  | 3 ->
      signed rng
        (digit_string rng (1 + Rng.int rng 10) ^ "." ^ digit_string rng (Rng.int rng 5)
       ^ "1" ^ z (Rng.int rng 8))
  | _ -> signed rng (digit_string rng (1 + Rng.int rng 5) ^ z (Rng.int rng 20) ^ "e-" ^ string_of_int (Rng.int rng 30))

(* With [float_specials], the fixed forms the fast path leaves to
   [float_of_string]. *)
let fallback_specials =
  Array.append float_specials
    [| "-"; "+"; "."; "-."; "e5"; "-.5"; "-5."; "1e-"; "1.5."; "1e5.5"; "1_"; "1e1_0"; "1.2_3";
       "-+1"; "0X1.8p1"; "-0x10"; "Infinity"; "-nan"; "NaN"; "1e100000"; "1e-100000";
       "0e999999"; "1\0002"; "1e5e5"; "١" |]

(* A fallback form: a fixed one, a hex float, or a valid number with a
   byte the fast path does not take put in at random. *)
let fallback_form rng =
  match Rng.int rng 3 with
  | 0 -> pick rng fallback_specials
  | 1 -> Printf.sprintf "%h" (Int64.float_of_bits (Rng.bits64 rng))
  | _ ->
      let s = Printf.sprintf "%.17g" (Rng.float_unit rng *. 1e6) in
      let k = Rng.int rng (String.length s + 1) in
      String.sub s 0 k ^ pick rng [| "_"; "+"; " "; "x"; "."; "e"; "-"; ","; "_0" |]
      ^ String.sub s k (String.length s - k)

let decimal_case rng =
  match Rng.int rng 6 with
  | 0 -> long_mantissa rng
  | 1 -> halfway rng
  | 2 -> zeros rng
  | 3 -> boundary rng
  | 4 -> fallback_form rng
  | _ -> Printf.sprintf "%.*g" (15 + Rng.int rng 3) (Int64.float_of_bits (Rng.bits64 rng))

let read_bits f = match f () with x -> Ok (Int64.bits_of_float x) | exception Failure _ -> Error ()

let prop_decimal_matches_float_of_string =
  QCheck.Test.make ~name:"Decimal.float_of_substring ≡ float_of_string ∘ String.sub" ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let rejected = ref 0 in
      let check s =
        let pad () = String.init (Rng.int rng 3) (fun _ -> pick rng [| '0'; '9'; '.'; 'e'; '-'; '5' |]) in
        let before = pad () in
        let text = before ^ s ^ pad () in
        let i = String.length before in
        let expected = read_bits (fun () -> float_of_string s) in
        let got = read_bits (fun () -> Decimal.float_of_substring text i (i + String.length s)) in
        if expected <> got then
          QCheck.Test.fail_reportf "seed %d, %S: float_of_string %s, float_of_substring %s" seed s
            (match expected with Ok b -> Printf.sprintf "%Lx" b | Error () -> "Failure")
            (match got with Ok b -> Printf.sprintf "%Lx" b | Error () -> "Failure");
        if expected = Error () then incr rejected
      in
      for e = -360 to 330 do
        check (swept rng e)
      done;
      for _ = 1 to 160 do
        check (decimal_case rng)
      done;
      !rejected > 0)

(* Naturals as little-endian arrays of 24-bit limbs: just enough exact
   arithmetic to recompute the reader's table of powers of five. *)
let limb = 24

let nat_norm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

let nat_bit a k = k / limb < Array.length a && (a.(k / limb) lsr (k mod limb)) land 1 = 1

let nat_bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else
    let b = ref 0 in
    while a.(n - 1) lsr !b > 0 do
      incr b
    done;
    ((n - 1) * limb) + !b

let nat_of_bits n bit =
  let a = Array.make ((n / limb) + 1) 0 in
  for k = 0 to n - 1 do
    if bit k then a.(k / limb) <- a.(k / limb) lor (1 lsl (k mod limb))
  done;
  nat_norm a

(* a * 2^s for s >= 0, floor (a / 2^-s) for s < 0 *)
let nat_shift a s =
  let mask = (1 lsl limb) - 1 and n = Array.length a in
  if s >= 0 then begin
    let q = s / limb and r = s mod limb in
    let out = Array.make (n + q + 1) 0 in
    Array.iteri
      (fun i x ->
        let v = x lsl r in
        out.(i + q) <- out.(i + q) lor (v land mask);
        out.(i + q + 1) <- v lsr limb)
      a;
    nat_norm out
  end
  else
    let q = -s / limb and r = -s mod limb in
    nat_norm
      (Array.init (Int.max 0 (n - q)) (fun i ->
           let above = if i + q + 1 < n then a.(i + q + 1) lsl (limb - r) else 0 in
           ((a.(i + q) lsr r) lor above) land mask))

(* a * m for 0 < m < 2^24 *)
let nat_mul_small a m =
  let r = Array.make (Array.length a + 1) 0 and carry = ref 0 in
  Array.iteri
    (fun i x ->
      let v = (x * m) + !carry in
      r.(i) <- v land ((1 lsl limb) - 1);
      carry := v lsr limb)
    a;
  r.(Array.length a) <- !carry;
  nat_norm r

let nat_succ a =
  let r = Array.append a [| 0 |] and i = ref 0 in
  while r.(!i) = (1 lsl limb) - 1 do
    r.(!i) <- 0;
    incr i
  done;
  r.(!i) <- r.(!i) + 1;
  nat_norm r

let nat_compare a b =
  let a = nat_norm a and b = nat_norm b in
  if Array.length a <> Array.length b then compare (Array.length a) (Array.length b)
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (Array.length a - 1)

let nat_sub a b =
  (* a - b, a >= b *)
  let r = Array.copy a and borrow = ref 0 in
  Array.iteri
    (fun i x ->
      let v = x - (if i < Array.length b then b.(i) else 0) - !borrow in
      if v < 0 then begin
        r.(i) <- v + (1 lsl limb);
        borrow := 1
      end
      else begin
        r.(i) <- v;
        borrow := 0
      end)
    a;
  nat_norm r

(* floor (2^e / d), one quotient bit at a time. *)
let nat_div_pow2 e d =
  let r = ref [||] and bits = Array.make (e + 1) false in
  for k = e downto 0 do
    r := if k = e then [| 1 |] else nat_shift !r 1;
    if nat_compare !r d >= 0 then begin
      r := nat_sub !r d;
      bits.(k) <- true
    end
  done;
  nat_of_bits (e + 1) (fun k -> bits.(k))

let nat_word a w =
  let x = ref 0L in
  for k = 63 downto 0 do
    x := Int64.logor (Int64.shift_left !x 1) (if nat_bit a ((64 * w) + k) then 1L else 0L)
  done;
  !x

(* The table's definition, in exact arithmetic: for q >= 0, 5^q with
   its top bit moved to bit 127; for q = -k, floor (2^b / 5^k) + 1 with
   z the bit length of 5^k, b = z + 127 when k <= 27 and otherwise
   b = 2z + 128 and the quotient shifted right to fit 128 bits. *)
let test_power_table () =
  let pows = Array.make 343 [| 1 |] in
  for k = 1 to 342 do
    pows.(k) <- nat_mul_small pows.(k - 1) 5
  done;
  for q = -342 to 308 do
    let p = pows.(abs q) in
    let z = nat_bit_length p in
    let c =
      if q >= 0 then nat_shift p (128 - z)
      else if q >= -27 then nat_succ (nat_div_pow2 (z + 127) p)
      else
        let c = nat_succ (nat_div_pow2 ((2 * z) + 128) p) in
        nat_shift c (Int.min 0 (128 - nat_bit_length c))
    in
    let hi, lo = Decimal.power_of_five q in
    if nat_word c 1 <> hi || nat_word c 0 <> lo then
      Alcotest.failf "5^%d: table %016Lx_%016Lx, definition %016Lx_%016Lx" q hi lo (nat_word c 1)
        (nat_word c 0)
  done;
  Alcotest.(check (pair int64 int64))
    "q = -342" (0xeef453d6923bd65aL, 0x113faa2906a13b3fL) (Decimal.power_of_five (-342))

(* [create] against [Array.sort] with the comparator it has always
   used, on strictly increasing, tied and shuffled events. The ties
   are zero-length visits, which pass validation, that differ only in
   their state, so an order that moved one would show. *)
let compare_task_arrival a b =
  match compare a.Trace.task b.Trace.task with
  | 0 -> (
      match compare a.Trace.arrival b.Trace.arrival with
      | 0 -> compare a.Trace.departure b.Trace.departure
      | c -> c)
  | c -> c

let test_create_matches_sort () =
  let simulated =
    (List.assoc "three-tier 1-2-4" (golden_inputs ())).Trace.events |> Array.to_list
  in
  let tied =
    List.concat_map
      (fun e ->
        if e.Trace.task mod 3 = 0 && e.Trace.state > 0 then
          let z state = { e with Trace.state; arrival = e.Trace.departure } in
          [ e; z 5; z 7; z 9 ]
        else [ e ])
      simulated
  in
  let shuffled l =
    let a = Array.of_list l in
    Rng.shuffle_in_place (Rng.create ~seed:604 ()) a;
    Array.to_list a
  in
  List.iter
    (fun (name, events) ->
      let expected = Array.of_list events in
      Array.sort compare_task_arrival expected;
      let got = (Trace.create ~num_queues:8 events).Trace.events in
      Alcotest.(check int) (name ^ ": length") (Array.length expected) (Array.length got);
      Array.iteri
        (fun i e -> if not (e == got.(i)) then Alcotest.failf "%s: event %d moved" name i)
        expected)
    [
      ("strictly increasing", simulated);
      ("with ties", tied);
      ("shuffled", shuffled simulated);
      ("shuffled with ties", shuffled tied);
    ]

(* Lenient mode trims every field and reads a header with leading
   blanks as a header, where strict mode rejects both. *)
let test_lenient_blanks_around_fields () =
  let blanks =
    "  task,state,queue,arrival,departure\n\
     0 ,0,\t0, 0,1\n\
     0,1 ,1,1 ,\t2\n\
     \t1, 0,0,0 , 1.5\n\
     1,1,1, 1.5,3 \n"
  in
  match (Trace.of_csv_lenient ~num_queues:2 blanks, Trace.of_csv ~num_queues:2 clean_csv) with
  | Ok (t, report), Ok clean ->
      Alcotest.(check int) "no errors" 0 (List.length report.Trace.errors);
      Alcotest.(check int) "lines read" 5 report.Trace.lines_read;
      Alcotest.(check string) "same events" (trace_bits clean) (trace_bits t)
  | _ -> Alcotest.fail "blanks around fields must parse leniently"

(* Lenient repair of an event list against the CSV route to it. A seeded
   tandem trace (queues 0-2) is dirtied with every kind of record the
   repair classifies: exact duplicates, NaN, negative and reversed
   times, out-of-range queues, clock skew, tasks that enter at queue 1
   (a minority) and visits that revisit queue 0; a third of the lists
   are shuffled. *)
let dirty_events seed =
  let rng = Rng.create ~seed () in
  let trace =
    Net_helpers.simulate_n rng
      (Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ])
      (2 + Rng.int rng 30)
  in
  let dirty e =
    let open Trace in
    match Rng.int rng 24 with
    | 0 -> [ e; e ]
    | 1 -> [ { e with arrival = Float.nan } ]
    | 2 -> [ { e with departure = -.Float.nan } ]
    | 3 -> [ { e with arrival = -.e.arrival -. 1.0 } ]
    | 4 -> [ { e with departure = -.e.departure } ]
    | 5 -> [ { e with departure = e.arrival -. 0.01 } ]
    | 6 -> [ { e with queue = (if Rng.bool rng then -1 else 3 + Rng.int rng 3) } ]
    | 7 -> [ { e with arrival = e.arrival +. (0.5 *. (e.departure -. e.arrival)) } ]
    | 8 when e.state = 0 -> [ { e with queue = 1 } ]
    | 9 when e.state > 0 -> [ { e with queue = 0 } ]
    | 10 -> [ { e with arrival = infinity; departure = infinity } ]
    | _ -> [ e ]
  in
  let events = List.concat_map dirty (Array.to_list trace.Trace.events) in
  if Rng.int rng 3 = 0 then begin
    let a = Array.of_list events in
    Rng.shuffle_in_place rng a;
    Array.to_list a
  end
  else events

let prop_events_lenient_matches_csv =
  QCheck.Test.make ~name:"of_events_lenient ≡ of_csv_lenient" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let events = dirty_events seed in
      let csv =
        "task,state,queue,arrival,departure\n"
        ^ String.concat ""
            (List.map
               (fun e ->
                 Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.Trace.task e.Trace.state
                   e.Trace.queue e.Trace.arrival e.Trace.departure)
               events)
      in
      let show = function
        | Ok (t, r) -> (Some (trace_bits t), r)
        | Error r -> (None, r)
      in
      let summary (bits, r) =
        ( bits,
          [ r.Trace.events_kept; r.Trace.events_dropped; r.Trace.tasks_dropped ],
          List.map
            (fun e ->
              (e.Trace.task_id, Trace.corruption_label e.Trace.reason, e.Trace.detail))
            r.Trace.errors )
      in
      let from_events = show (Trace.of_events_lenient ~num_queues:3 events) in
      let from_csv = show (Trace.of_csv_lenient ~num_queues:3 csv) in
      if summary from_events <> summary from_csv then
        QCheck.Test.fail_reportf "seed %d: the two routes disagree on@ %S" seed csv;
      if List.exists (fun e -> e.Trace.line <> None) (snd from_events).Trace.errors then
        QCheck.Test.fail_reportf "seed %d: an event-list error names a line" seed;
      true)

(* The list-based repair that [Trace.of_events_lenient]'s array passes
   replaced, kept verbatim (the source lines aside: an event list has
   none) as the oracle they must match, bit for bit. *)
module List_repair = struct
  open Trace

  let chain_tolerance = 1e-9

  let of_events ~num_queues events =
    let errors = ref [] in
    let record ?task reason detail =
      errors := { line = None; task_id = task; reason; detail } :: !errors
    in
    let candidates = ref 0 in
    (* Pass 1: per-field sanity. *)
    let parsed = ref [] in
    List.iter
      (fun ({ queue; arrival; departure; _ } as e) ->
        incr candidates;
        if Float.is_nan arrival || Float.is_nan departure then
          record ~task:e.task Nan_field "NaN arrival or departure"
        else if queue < 0 || queue >= num_queues then
          record ~task:e.task Bad_queue
            (Printf.sprintf "queue %d outside [0,%d)" queue num_queues)
        else if arrival < 0.0 || departure < 0.0 then
          record ~task:e.task Negative_time
            (Printf.sprintf "negative time (arrival %g, departure %g)" arrival departure)
        else if departure < arrival -. chain_tolerance then
          record ~task:e.task Out_of_order
            (Printf.sprintf "departure %g before arrival %g" departure arrival)
        else parsed := e :: !parsed)
      events;
    let parsed = List.rev !parsed in
    (* Pass 2: drop exact duplicates (keep the first occurrence). *)
    let seen = Hashtbl.create 256 in
    let deduped =
      List.filter
        (fun e ->
          let key = (e.task, e.state, e.queue, e.arrival, e.departure) in
          if Hashtbl.mem seen key then begin
            record ~task:e.task Duplicate_event "exact duplicate record";
            false
          end
          else begin
            Hashtbl.add seen key ();
            true
          end)
        parsed
    in
    (* Pass 3: per-task chain repair. *)
    let by_task = Hashtbl.create 64 in
    let task_order = ref [] in
    List.iter
      (fun e ->
        match Hashtbl.find_opt by_task e.task with
        | None ->
            Hashtbl.add by_task e.task (ref [ e ]);
            task_order := e.task :: !task_order
        | Some l -> l := e :: !l)
      deduped;
    let task_order = List.rev !task_order in
    let tasks_dropped = ref 0 in
    let chains =
      List.filter_map
        (fun task ->
          let events = List.rev !(Hashtbl.find by_task task) in
          let events =
            List.sort
              (fun a b ->
                match compare a.arrival b.arrival with
                | 0 -> compare a.departure b.departure
                | c -> c)
              events
          in
          match events with
          | [] -> None
          | first :: _ when not (Float.equal first.arrival 0.0) ->
              record ~task Missing_initial
                (Printf.sprintf "first event arrives at %g, not 0" first.arrival);
              incr tasks_dropped;
              None
          | first :: rest ->
              let kept = ref [ first ] in
              let prev = ref first in
              let broken = ref false in
              List.iter
                (fun e ->
                  if not !broken then begin
                    if Float.abs (e.arrival -. !prev.departure) > chain_tolerance then begin
                      record ~task Broken_chain
                        (Printf.sprintf
                           "arrival %g disagrees with predecessor departure %g; \
                            dropping the task's remaining events"
                           e.arrival !prev.departure);
                      broken := true
                    end
                    else begin
                      kept := e :: !kept;
                      prev := e
                    end
                  end)
                rest;
              Some (task, List.rev !kept))
        task_order
    in
    (* Pass 4: route consistency. *)
    let entry_counts = Hashtbl.create 8 in
    List.iter
      (fun (_task, events) ->
        let q = (List.hd events).queue in
        Hashtbl.replace entry_counts q
          (1 + Option.value ~default:0 (Hashtbl.find_opt entry_counts q)))
      chains;
    let arrival_queue =
      Hashtbl.fold
        (fun q c best ->
          match best with
          | Some (_, c') when c' >= c -> best
          | _ -> Some (q, c))
        entry_counts None
    in
    let chains =
      match arrival_queue with
      | None -> []
      | Some (q0, _) ->
          List.filter_map
            (fun (task, events) ->
              let entry = List.hd events in
              if entry.queue <> q0 then begin
                record ~task Inconsistent_route
                  (Printf.sprintf "task enters at queue %d, not the arrival queue %d"
                     entry.queue q0);
                incr tasks_dropped;
                None
              end
              else begin
                let kept = ref [ entry ] in
                let ok = ref true in
                List.iter
                  (fun e ->
                    if !ok then
                      if e.queue = q0 then begin
                        record ~task Inconsistent_route
                          "task revisits the arrival queue; dropping its remaining \
                           events";
                        ok := false
                      end
                      else kept := e :: !kept)
                  (List.tl events);
                Some (task, List.rev !kept)
              end)
            chains
    in
    let events = List.concat_map snd chains in
    let report kept =
      {
        errors = !errors;
        lines_read = !candidates;
        events_kept = kept;
        events_dropped = !candidates - kept;
        tasks_dropped = !tasks_dropped;
      }
    in
    match events with
    | [] -> Error (report 0)
    | events -> (
        try Ok (create ~num_queues events, report (List.length events))
        with Invalid_argument msg ->
          record Malformed_line ("residual inconsistency: " ^ msg);
          Error (report 0))
end

(* Corrupted event lists for the repair: a seeded tandem or feedback
   trace, each record kept, dropped or dirtied — duplicated (±0 times
   included), tied on (task, arrival, departure) with another state or
   queue, NaN, negative, reversed, out of range, clock-skewed, without
   its initial event, entering at queue 1 (a minority, or a tie with
   queue 0 when the seed makes it common) or revisiting queue 0 — and a
   third of the lists shuffled. *)
let corrupted_events seed =
  let rng = Rng.create ~seed () in
  let net =
    if Rng.bool rng then Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ]
    else Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4
  in
  let trace = Net_helpers.simulate_n rng net (2 + Rng.int rng 30) in
  let nq = trace.Trace.num_queues in
  let reroutes = 1 + Rng.int rng 4 in
  let dirty e =
    let open Trace in
    match Rng.int rng 30 with
    | 0 -> [ e; e ]
    | 1 -> [ e; { e with arrival = -.e.arrival } ]
    | 2 -> [ { e with departure = -.e.departure }; e ]
    | 3 -> [ e; { e with state = e.state + 1 + Rng.int rng 3 } ]
    | 4 -> [ { e with queue = (e.queue + 1 + Rng.int rng (nq - 1)) mod nq }; e ]
    | 5 -> [ { e with arrival = Float.nan } ]
    | 6 -> [ { e with departure = -.Float.nan } ]
    | 7 -> [ { e with arrival = -.e.arrival -. 1.0 } ]
    | 8 -> [ { e with departure = e.arrival -. 0.01 } ]
    | 9 -> [ { e with queue = (if Rng.bool rng then -1 else nq + Rng.int rng 3) } ]
    | 10 -> [ { e with arrival = e.arrival +. (0.5 *. (e.departure -. e.arrival)) } ]
    | 11 when e.state = 0 -> []
    | 12 when e.state > 0 -> [ { e with queue = 0 } ]
    | 13 -> [ { e with arrival = infinity; departure = infinity } ]
    | k when k >= 26 && k < 26 + reroutes && e.state = 0 -> [ { e with queue = 1 } ]
    | _ -> [ e ]
  in
  let events = List.concat_map dirty (Array.to_list trace.Trace.events) in
  if Rng.int rng 3 = 0 then begin
    let a = Array.of_list events in
    Rng.shuffle_in_place rng a;
    (nq, Array.to_list a)
  end
  else (nq, events)

let repair_summary = function
  | Ok (t, r) -> (Some (trace_bits t), r)
  | Error r -> (None, r)

(* The array repair and the list repair agree on the events [seed]
   drew, trace bits and report alike. *)
let repair_agrees seed (num_queues, events) =
  let bits, report = repair_summary (Trace.of_events_lenient ~num_queues events) in
  let bits', report' = repair_summary (List_repair.of_events ~num_queues events) in
  if bits <> bits' then QCheck.Test.fail_reportf "seed %d: the traces differ" seed;
  if report <> report' then
    QCheck.Test.fail_reportf "seed %d: the reports differ:@ %a@ against@ %a" seed
      Trace.pp_ingest_report report Trace.pp_ingest_report report';
  true

let prop_repair_matches_list_oracle =
  QCheck.Test.make ~name:"array repair ≡ list repair" ~count:1000
    QCheck.(int_range 1 1_000_000)
    (fun seed -> repair_agrees seed (corrupted_events seed))

(* Event lists already in the repair's order, or one step from it, so
   the repair's in-order check meets both outcomes: a clean seeded
   tandem or feedback trace; the same with only its last pair swapped;
   with records tied on (task, arrival, departure) that differ only in
   state or queue, next to the original; or with every initial event
   arriving at -0. *)
let ordered_events seed =
  let rng = Rng.create ~seed () in
  let net =
    if Rng.bool rng then Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ]
    else Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4
  in
  let trace = Net_helpers.simulate_n rng net (1 + Rng.int rng 30) in
  let nq = trace.Trace.num_queues in
  let events = Array.to_list trace.Trace.events in
  let events =
    match Rng.int rng 4 with
    | 0 -> events
    | 1 -> (
        match List.rev events with
        | b :: a :: rest -> List.rev_append rest [ b; a ]
        | short -> List.rev short)
    | 2 ->
        List.concat_map
          (fun (e : Trace.event) ->
            match Rng.int rng 4 with
            | 0 -> [ e; { e with state = e.state + 1 } ]
            | 1 -> [ e; { e with queue = (e.queue + 1) mod nq } ]
            | _ -> [ e ])
          events
    | _ ->
        List.map
          (fun (e : Trace.event) -> if e.arrival = 0.0 then { e with arrival = -0.0 } else e)
          events
  in
  (nq, events)

let prop_repair_in_order_matches_list_oracle =
  QCheck.Test.make ~name:"array repair ≡ list repair, records in order" ~count:400
    QCheck.(int_range 1 1_000_000)
    (fun seed -> repair_agrees seed (ordered_events seed))

(* The ceiling [make bench] gates as MAX_REPAIR_BPE, on the ~10k-event
   golden trace: the repair keeps a few arrays of one word per record,
   and the records arrive in order, so it skips the sort: 49 B per
   event, 71 B when it sorted them anyway. The list repair, a tuple and
   a cons per record, a table of 5-tuples and per-task lists, took
   615 B. *)
let test_repair_allocation () =
  let t = List.assoc "three-tier 1-2-4" (golden_inputs ()) in
  let events = Array.to_list t.Trace.events in
  let w0 = Qnet_obs.Prof.allocated_words () in
  ignore (Sys.opaque_identity (Trace.of_events_lenient ~num_queues:t.Trace.num_queues events));
  let per_event =
    (Qnet_obs.Prof.allocated_words () -. w0)
    *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Array.length t.Trace.events)
  in
  if per_event > 56.0 then
    Alcotest.failf "of_events_lenient allocated %.1f B per event (budget 56)" per_event

let () =
  Alcotest.run "qnet_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "create valid" `Quick test_create_valid;
          Alcotest.test_case "create rejects bad input" `Quick test_create_rejects_bad_input;
          Alcotest.test_case "tasks and grouping" `Quick test_tasks_and_grouping;
          Alcotest.test_case "queue event order" `Quick test_queue_events_order;
          Alcotest.test_case "service and waiting" `Quick test_service_and_waiting;
          Alcotest.test_case "q0 interarrival" `Quick test_q0_service_is_interarrival;
          Alcotest.test_case "response times" `Quick test_response_times;
          Alcotest.test_case "span and utilization" `Quick test_span_and_utilization;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv rejects garbage" `Quick test_csv_rejects_garbage;
          Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
          Alcotest.test_case "load missing file" `Quick test_load_missing_file;
          Alcotest.test_case "summary printer" `Quick test_pp_summary_runs;
        ] );
      ( "parser goldens",
        [
          Alcotest.test_case "of_csv bits" `Quick test_golden_parse;
          Alcotest.test_case "error strings" `Quick test_golden_parse_errors;
          Alcotest.test_case "arrival text" `Quick test_arrival_text;
          QCheck_alcotest.to_alcotest prop_parser_matches_oracle;
          QCheck_alcotest.to_alcotest prop_decimal_matches_float_of_string;
          Alcotest.test_case "power-of-five table" `Quick test_power_table;
          Alcotest.test_case "create ≡ Array.sort" `Quick test_create_matches_sort;
          Alcotest.test_case "parse allocation" `Quick test_parse_allocation;
          QCheck_alcotest.to_alcotest prop_reader_matches_scanner;
          Alcotest.test_case "newline count ≡ byte loop" `Quick test_count_newlines;
          Alcotest.test_case "one-walk create ≡ three walks" `Quick test_create_one_walk;
        ] );
      ( "lenient-edges",
        [
          Alcotest.test_case "empty file" `Quick test_lenient_empty_file;
          Alcotest.test_case "crlf line endings" `Quick test_lenient_crlf;
          Alcotest.test_case "final line without newline" `Quick
            test_lenient_no_final_newline;
          Alcotest.test_case "blanks around fields" `Quick test_lenient_blanks_around_fields;
          QCheck_alcotest.to_alcotest prop_events_lenient_matches_csv;
          QCheck_alcotest.to_alcotest prop_repair_matches_list_oracle;
          QCheck_alcotest.to_alcotest prop_repair_in_order_matches_list_oracle;
          Alcotest.test_case "repair allocation" `Quick test_repair_allocation;
        ] );
    ]
