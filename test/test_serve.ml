(* Tests for the serving layer: ingestion hardening, admission
   control, shard checkpoints, the replay load generator, and the
   daemon's HTTP surface (driven in-process through Daemon.handle —
   the same code path the listener uses, without socket flakiness). *)

module Ingest = Qnet_serve.Ingest
module Bounded_queue = Qnet_serve.Bounded_queue
module Router = Qnet_serve.Router
module Admission = Qnet_serve.Admission
module Framed_log = Qnet_serve.Framed_log
module Shard = Qnet_serve.Shard
module Daemon = Qnet_serve.Daemon
module Serve_metrics = Qnet_serve.Serve_metrics
module Replay = Qnet_des.Replay
module Fault = Qnet_runtime.Fault
module Metrics = Qnet_obs.Metrics
module Jsonx = Qnet_obs.Jsonx
module Server = Qnet_webapp.Metrics_server
module Trace = Qnet_trace.Trace
module Rng = Qnet_prob.Rng
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let until ?(timeout = 30.0) ?(what = "condition") pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Ingest decoding                                                     *)
(* ------------------------------------------------------------------ *)

let test_decode_json () =
  match
    Ingest.decode_line ~num_queues:3
      "{\"tenant\":\"acme\",\"task\":7,\"state\":2,\"queue\":1,\"arrival\":0.5,\"departure\":0.9,\"extra\":true}"
  with
  | Error m -> Alcotest.failf "valid json rejected: %s" m
  | Ok r ->
      Alcotest.(check string) "tenant" "acme" r.Ingest.tenant;
      Alcotest.(check int) "task" 7 r.Ingest.task;
      Alcotest.(check int) "state" 2 r.Ingest.state;
      Alcotest.(check int) "queue" 1 r.Ingest.queue

let test_decode_json_state_optional () =
  match
    Ingest.decode_line ~num_queues:2
      "{\"tenant\":\"t0\",\"task\":1,\"queue\":0,\"arrival\":0,\"departure\":1}"
  with
  | Error m -> Alcotest.failf "json without state rejected: %s" m
  | Ok r -> Alcotest.(check int) "state defaults to 0" 0 r.Ingest.state

let test_decode_csv () =
  match Ingest.decode_line ~num_queues:3 "acme,3,1,2,0.25,0.75" with
  | Error m -> Alcotest.failf "valid csv rejected: %s" m
  | Ok r ->
      Alcotest.(check string) "tenant" "acme" r.Ingest.tenant;
      Alcotest.(check int) "queue" 2 r.Ingest.queue

let expect_reject name line =
  match Ingest.decode_line ~num_queues:3 line with
  | Ok _ -> Alcotest.failf "%s: expected rejection of %S" name line
  | Error reason ->
      if String.length reason = 0 then
        Alcotest.failf "%s: empty rejection reason" name

let test_decode_rejects () =
  expect_reject "truncated json" "{\"tenant\":\"t0\",\"task\":1,";
  expect_reject "queue out of range" "t0,1,0,9,0.1,0.2";
  expect_reject "nan time" "t0,1,0,1,nan,0.2";
  expect_reject "negative time" "t0,1,0,1,-1.0,0.2";
  expect_reject "departure before arrival" "t0,1,0,1,2.0,1.0";
  expect_reject "bad tenant" "{\"tenant\":\"no spaces\",\"task\":1,\"queue\":0,\"arrival\":0,\"departure\":1}";
  expect_reject "wrong field count" "t0,1,0";
  expect_reject "binary junk" "\x01\x02\x7fgarbage";
  expect_reject "oversized line" (String.make 5000 'x')

let test_json_roundtrip () =
  let r =
    {
      Ingest.tenant = "web-1";
      task = 42;
      state = 3;
      queue = 2;
      arrival = 1.25;
      departure = 2.5;
    }
  in
  match Ingest.decode_line ~num_queues:3 (Ingest.to_json_line r) with
  | Error m -> Alcotest.failf "canonical line rejected: %s" m
  | Ok r' ->
      Alcotest.(check bool) "round-trips" true (r = r')

let test_valid_tenant () =
  Alcotest.(check bool) "simple" true (Ingest.valid_tenant "acme-1.web_2");
  Alcotest.(check bool) "empty" false (Ingest.valid_tenant "");
  Alcotest.(check bool) "spaces" false (Ingest.valid_tenant "a b");
  Alcotest.(check bool) "slash" false (Ingest.valid_tenant "a/b");
  Alcotest.(check bool) "too long" false (Ingest.valid_tenant (String.make 65 'a'))

let test_dead_letter () =
  let dir = fresh_dir "qnet-dl" in
  let path = Filename.concat dir "dead.jsonl" in
  (match Ingest.Dead_letter.open_ ~path with
  | Error m -> Alcotest.failf "cannot open dead letter: %s" m
  | Ok dl ->
      Ingest.Dead_letter.write dl ~line:"garbage" ~reason:"bad json";
      Ingest.Dead_letter.write dl ~line:"more \"quoted\" junk" ~reason:"nan";
      Alcotest.(check int) "count" 2 (Ingest.Dead_letter.count dl);
      Ingest.Dead_letter.close dl;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "file lines" 2 (List.length !lines);
      List.iter
        (fun l ->
          match Jsonx.parse_object l with
          | Error m -> Alcotest.failf "unparseable dead-letter line %S: %s" l m
          | Ok fields ->
              if not (List.mem_assoc "reason" fields) then
                Alcotest.fail "dead-letter line missing reason";
              if not (List.mem_assoc "line" fields) then
                Alcotest.fail "dead-letter line missing original line")
        !lines);
  let nul = Ingest.Dead_letter.null () in
  Ingest.Dead_letter.write nul ~line:"x" ~reason:"y";
  Alcotest.(check int) "null sink counts" 1 (Ingest.Dead_letter.count nul)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_queue_shed () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Bounded_queue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bounded_queue.length q)

let test_queue_fifo_batch () =
  let q = Bounded_queue.create ~capacity:10 in
  List.iter (fun i -> ignore (Bounded_queue.try_push q i : bool)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int))
    "fifo, capped at max" [ 1; 2; 3 ]
    (Bounded_queue.pop_batch ~max:3 ~timeout:0.1 q);
  Alcotest.(check (list int))
    "remainder" [ 4 ]
    (Bounded_queue.pop_batch ~timeout:0.1 q);
  Alcotest.(check (list int))
    "empty after timeout" []
    (Bounded_queue.pop_batch ~timeout:0.05 q)

let test_queue_push_wait () =
  let q = Bounded_queue.create ~capacity:1 in
  Alcotest.(check bool) "fill" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool)
    "push_wait times out when full" false
    (Bounded_queue.push_wait ~timeout:0.1 q 2);
  let consumer =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        ignore (Bounded_queue.pop_batch ~timeout:1.0 q : int list))
      ()
  in
  Alcotest.(check bool)
    "push_wait succeeds once drained" true
    (Bounded_queue.push_wait ~timeout:2.0 q 2);
  Thread.join consumer

let test_queue_close () =
  let q = Bounded_queue.create ~capacity:4 in
  ignore (Bounded_queue.try_push q 1 : bool);
  Bounded_queue.close q;
  Alcotest.(check bool) "closed" true (Bounded_queue.is_closed q);
  Alcotest.(check bool) "push after close" false (Bounded_queue.try_push q 2);
  Alcotest.(check (list int))
    "drain after close" [ 1 ]
    (Bounded_queue.pop_batch ~timeout:0.1 q);
  Alcotest.(check (list int))
    "drained+closed returns []" []
    (Bounded_queue.pop_batch ~timeout:0.1 q)

(* Concurrent stress: the shed-vs-block tail semantics under real
   producer/consumer races, with exact accounting — no item may ever
   vanish without being counted. *)

let stress_consumer q delivered =
  Thread.create
    (fun () ->
      let rec go () =
        match Bounded_queue.pop_batch ~timeout:0.2 q with
        | [] -> if not (Bounded_queue.is_closed q) then go ()
        | batch ->
            ignore (Atomic.fetch_and_add delivered (List.length batch) : int);
            go ()
      in
      go ())
    ()

let test_queue_stress_shed_accounting () =
  let q = Bounded_queue.create ~capacity:16 in
  let producers = 4 and per_producer = 500 in
  let shed = Atomic.make 0 and delivered = Atomic.make 0 in
  let consumer = stress_consumer q delivered in
  let ps =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per_producer - 1 do
              if not (Bounded_queue.try_push q ((p * per_producer) + i)) then
                ignore (Atomic.fetch_and_add shed 1 : int)
            done)
          ())
  in
  List.iter Thread.join ps;
  Bounded_queue.close q;
  Thread.join consumer;
  (* whatever the consumer's final timeout raced past is still here *)
  let rest = List.length (Bounded_queue.pop_batch ~timeout:0.1 q) in
  Alcotest.(check int)
    "delivered + shed + residue == produced"
    (producers * per_producer)
    (Atomic.get delivered + Atomic.get shed + rest)

let test_queue_stress_block_lossless () =
  let q = Bounded_queue.create ~capacity:8 in
  let producers = 3 and per_producer = 300 in
  let delivered = Atomic.make 0 in
  let consumer = stress_consumer q delivered in
  let ps =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per_producer - 1 do
              let rec push () =
                if not (Bounded_queue.push_wait ~timeout:5.0 q ((p * per_producer) + i))
                then push ()
              in
              push ()
            done)
          ())
  in
  List.iter Thread.join ps;
  Bounded_queue.close q;
  Thread.join consumer;
  let rest = List.length (Bounded_queue.pop_batch ~timeout:0.1 q) in
  Alcotest.(check int)
    "blocking producers lose nothing"
    (producers * per_producer)
    (Atomic.get delivered + rest)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router () =
  List.iter
    (fun tenants ->
      let s = Router.shard_of_tenant ~shards:4 tenants in
      Alcotest.(check int)
        "deterministic" s
        (Router.shard_of_tenant ~shards:4 tenants);
      if s < 0 || s >= 4 then Alcotest.failf "shard %d out of range" s)
    [ "t0"; "t1"; "acme"; "web-frontend"; "a"; "" ];
  (* the stream tenants t0..t7 must not all land on one of two shards *)
  let hits = Array.make 2 0 in
  for i = 0 to 7 do
    let s = Router.shard_of_tenant ~shards:2 (Printf.sprintf "t%d" i) in
    hits.(s) <- hits.(s) + 1
  done;
  Alcotest.(check bool) "both shards used" true (hits.(0) > 0 && hits.(1) > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint codec + backoff                                          *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  {
    Shard.Ckpt.iterations = 120;
    rounds = 7;
    restarts = 1;
    tenants =
      [
        {
          Shard.Ckpt.tenant = "acme";
          rates = [| 2.0; 1.5; 0.75 |];
          arrival_queue = 0;
          mean_service = [| 0.5; 0.666; 1.333 |];
          iteration = 120;
          round = 7;
          num_events = 240;
        };
        {
          Shard.Ckpt.tenant = "web";
          rates = [| 1.0; 1.0; 1.0 |];
          arrival_queue = 0;
          mean_service = [| 1.0; 1.0; 1.0 |];
          iteration = 100;
          round = 6;
          num_events = 180;
        };
      ];
  }

let test_ckpt_roundtrip () =
  let s = snapshot () in
  match Shard.Ckpt.of_line (Shard.Ckpt.to_line s) with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok s' ->
      Alcotest.(check int) "iterations" s.Shard.Ckpt.iterations s'.Shard.Ckpt.iterations;
      Alcotest.(check int) "rounds" s.Shard.Ckpt.rounds s'.Shard.Ckpt.rounds;
      Alcotest.(check int)
        "tenant count" 2
        (List.length s'.Shard.Ckpt.tenants);
      let t = List.hd s'.Shard.Ckpt.tenants in
      Alcotest.(check string) "tenant" "acme" t.Shard.Ckpt.tenant;
      Alcotest.(check (float 1e-12)) "rate" 2.0 t.Shard.Ckpt.rates.(0)

let test_ckpt_rejects () =
  let expect_err name line =
    match Shard.Ckpt.of_line line with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error _ -> ()
  in
  expect_err "garbage" "not json at all";
  expect_err "wrong version"
    "{\"version\":99,\"iterations\":1,\"rounds\":1,\"restarts\":0,\"tenants\":[]}";
  expect_err "missing fields" "{\"version\":1}";
  expect_err "bad rates"
    "{\"version\":1,\"iterations\":1,\"rounds\":1,\"restarts\":0,\"tenants\":[{\"tenant\":\"a\",\"rates\":[-1],\"arrival_queue\":0,\"mean_service\":[1],\"iteration\":1,\"round\":1,\"num_events\":1}]}"

let test_backoff () =
  let b = Shard.backoff ~base:0.25 ~max_:4.0 in
  Alcotest.(check (float 1e-12)) "1st" 0.25 (b 1);
  Alcotest.(check (float 1e-12)) "2nd" 0.5 (b 2);
  Alcotest.(check (float 1e-12)) "3rd" 1.0 (b 3);
  Alcotest.(check (float 1e-12)) "4th" 2.0 (b 4);
  Alcotest.(check (float 1e-12)) "5th" 4.0 (b 5);
  Alcotest.(check (float 1e-12)) "capped" 4.0 (b 9)

(* ------------------------------------------------------------------ *)
(* Service fault specs                                                 *)
(* ------------------------------------------------------------------ *)

let test_service_fault_parse () =
  (match Fault.parse_service_fault "0:ingest-stall=1.5@4" with
  | Ok { Fault.shard = 0; after; kind = Fault.Ingest_stall s } ->
      Alcotest.(check (float 1e-12)) "after" 4.0 after;
      Alcotest.(check (float 1e-12)) "stall seconds" 1.5 s
  | Ok _ -> Alcotest.fail "parsed into the wrong fault"
  | Error m -> Alcotest.failf "rejected valid spec: %s" m);
  (match Fault.parse_service_fault "1:crash@6" with
  | Ok { Fault.shard = 1; kind = Fault.Shard_crash; _ } -> ()
  | _ -> Alcotest.fail "crash spec");
  (match Fault.parse_service_fault "0:ckpt-fail@8" with
  | Ok { Fault.kind = Fault.Checkpoint_write_failure; _ } -> ()
  | _ -> Alcotest.fail "ckpt-fail spec");
  (match Fault.parse_service_fault "1:slow@3" with
  | Ok { Fault.kind = Fault.Slow_consumer _; _ } -> ()
  | _ -> Alcotest.fail "slow spec");
  (match Fault.parse_service_fault "0:torn-write@6" with
  | Ok { Fault.kind = Fault.Torn_write; _ } -> ()
  | _ -> Alcotest.fail "torn-write spec");
  (match Fault.parse_service_fault "0:bit-flip@8" with
  | Ok { Fault.kind = Fault.Bit_flip; _ } -> ()
  | _ -> Alcotest.fail "bit-flip spec");
  (match Fault.parse_service_fault "1:overload=50@3" with
  | Ok { Fault.kind = Fault.Overload r; _ } ->
      Alcotest.(check (float 1e-12)) "overload rps" 50.0 r
  | _ -> Alcotest.fail "overload spec");
  List.iter
    (fun bad ->
      match Fault.parse_service_fault bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      ""; "crash@6"; "0:crash"; "x:crash@6"; "0:unknown@6"; "0:crash@-1";
      "0:overload@3"; "0:overload=-5@3"; "0:overload=0@3";
    ]

(* ------------------------------------------------------------------ *)
(* Framed durable log                                                  *)
(* ------------------------------------------------------------------ *)

let test_framed_crc32 () =
  Alcotest.(check int)
    "standard check value" 0xCBF43926
    (Framed_log.crc32 "123456789")

(* The CRC as it was computed over boxed Int32 values, kept as the
   oracle for the int version. *)
let crc32_int32_oracle s =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.to_int (Int32.logand !c 1l) = 1 then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let test_framed_crc32_oracle () =
  let st = Random.State.make [| 32 |] in
  let random_payload () =
    String.init (Random.State.int st 400) (fun _ ->
        Char.chr (Random.State.int st 256))
  in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "crc32 of %d bytes" (String.length s))
        (Int32.to_int (crc32_int32_oracle s) land 0xFFFFFFFF)
        (Framed_log.crc32 s))
    ("" :: String.init 256 Char.chr :: List.init 500 (fun _ -> random_payload ()))

let test_framed_crc32_allocates_nothing () =
  let payload =
    "{\"tenant\":\"t0\",\"task\":1042,\"state\":1,\"queue\":1,\"arrival\":104.2375,\"departure\":104.4421}"
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Framed_log.crc32 payload))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 16.0 then
    Alcotest.failf "%.0f words allocated by 1,000 calls on %d bytes" words
      (String.length payload)

let test_framed_parse () =
  let payload = "{\"tenant\":\"acme\",\"task\":1}" in
  (match Framed_log.parse (Framed_log.frame payload) with
  | Ok p -> Alcotest.(check string) "payload round-trips" payload p
  | Error _ -> Alcotest.fail "framed line failed to parse");
  (match Framed_log.parse "plain,csv,line" with
  | Error Framed_log.Not_a_frame -> ()
  | _ -> Alcotest.fail "legacy line must be Not_a_frame");
  (* one flipped payload byte: frame-shaped, fails its CRC *)
  let flipped =
    let b = Bytes.of_string (Framed_log.frame payload) in
    Bytes.set b (Bytes.length b - 1) 'X';
    Bytes.to_string b
  in
  (match Framed_log.parse flipped with
  | Error (Framed_log.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit-flipped frame must be Corrupt");
  (* a length that lies about the payload is also corrupt *)
  match
    Framed_log.parse
      (Printf.sprintf "%08x %d %s" (Framed_log.crc32 payload)
         (String.length payload + 1)
         payload)
  with
  | Error (Framed_log.Corrupt _) -> ()
  | _ -> Alcotest.fail "length mismatch must be Corrupt"

let test_framed_replay_and_torn_tail () =
  let dir = fresh_dir "qnet-framed" in
  let path = Filename.concat dir "log" in
  let corrupt =
    let b = Bytes.of_string (Framed_log.frame "gamma") in
    Bytes.set b (Bytes.length b - 1) 'X';
    Bytes.to_string b
  in
  let torn =
    let f = Framed_log.frame "delta-with-enough-length-to-tear" in
    String.sub f 0 (String.length f / 2)
  in
  let oc = open_out path in
  output_string oc
    (Framed_log.frame "alpha" ^ "\n" ^ "legacy line" ^ "\n" ^ corrupt ^ "\n"
   ^ Framed_log.frame "beta" ^ "\n" ^ torn);
  close_out oc;
  let payloads = ref [] and corrupts = ref [] in
  (match
     Framed_log.replay_file ~path
       ~on_payload:(fun p -> payloads := p :: !payloads)
       ~on_corrupt:(fun ~line:_ ~reason -> corrupts := reason :: !corrupts)
       ()
   with
  | Error m -> Alcotest.failf "replay failed: %s" m
  | Ok stats ->
      Alcotest.(check int) "frames" 2 stats.Framed_log.frames;
      Alcotest.(check int) "legacy" 1 stats.Framed_log.legacy;
      Alcotest.(check int) "corrupt" 1 stats.Framed_log.corrupt;
      Alcotest.(check int) "quarantine callback" 1 (List.length !corrupts);
      Alcotest.(check bool) "torn tail found" true stats.Framed_log.torn;
      Alcotest.(check (list string))
        "payload order preserved"
        [ "alpha"; "legacy line"; "beta" ]
        (List.rev !payloads));
  (* the torn tail was truncated away: a second replay sees the same
     surviving prefix, bit-identical, and no tear *)
  let again = ref [] in
  match
    Framed_log.replay_file ~path
      ~on_payload:(fun p -> again := p :: !again)
      ~on_corrupt:(fun ~line:_ ~reason:_ -> ())
      ()
  with
  | Error m -> Alcotest.failf "second replay failed: %s" m
  | Ok stats ->
      Alcotest.(check bool) "no torn tail left" false stats.Framed_log.torn;
      Alcotest.(check (list string))
        "surviving prefix identical" (List.rev !payloads) (List.rev !again)

(* ------------------------------------------------------------------ *)
(* Admission controller                                                *)
(* ------------------------------------------------------------------ *)

let admission_test_config =
  { Admission.default_config with Admission.adjust_interval = 0.0; seed = 42 }

let test_admission_aimd () =
  let a = Admission.create admission_test_config in
  Alcotest.(check (float 1e-12))
    "starts fully open" 1.0
    (Admission.rate a ~tenant:"t");
  Admission.observe a ~tenant:"t" ~pressure:0.9 ~now:1.0;
  let after_one = Admission.rate a ~tenant:"t" in
  Alcotest.(check bool)
    "high pressure backs off multiplicatively" true
    (after_one < 1.0);
  for i = 2 to 30 do
    Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9))
    "floored at min_rate" admission_test_config.Admission.min_rate
    (Admission.rate a ~tenant:"t");
  (* tenants are independent: the other tenant never moved *)
  Alcotest.(check (float 1e-12))
    "other tenant untouched" 1.0
    (Admission.rate a ~tenant:"other");
  for i = 31 to 300 do
    Admission.observe a ~tenant:"t" ~pressure:0.0 ~now:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9))
    "additive recovery back to 1" 1.0
    (Admission.rate a ~tenant:"t")

(* Only a rate change starts the adjust interval: a batch accepted in
   the dead band between the watermarks must not mask the full queue
   the next batch meets a millisecond later. *)
let test_admission_dead_band_does_not_throttle () =
  let a =
    Admission.create { admission_test_config with Admission.adjust_interval = 0.1 }
  in
  Admission.observe a ~tenant:"t" ~pressure:0.6 ~now:1.0;
  Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:1.001;
  let backed_off = Admission.rate a ~tenant:"t" in
  Alcotest.(check bool) "high pressure right after the dead band backs off" true
    (backed_off < 1.0);
  Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:1.002;
  Alcotest.(check (float 0.0)) "one adjustment per interval" backed_off
    (Admission.rate a ~tenant:"t")

let test_admission_coin_and_accounting () =
  let a = Admission.create admission_test_config in
  for _ = 1 to 100 do
    Alcotest.(check bool)
      "full rate always admits" true
      (Admission.admit a ~tenant:"t")
  done;
  for i = 1 to 30 do
    Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:(float_of_int i)
  done;
  let admitted = ref 0 in
  for _ = 1 to 1000 do
    if Admission.admit a ~tenant:"t" then incr admitted
  done;
  (* at the 1% floor, 1000 coins admit ~10; 100 is a 10-sigma bound *)
  Alcotest.(check bool) "floor thins the stream" true (!admitted < 100);
  Admission.note a ~tenant:"t" ~offered:1000 ~admitted:!admitted;
  let snap = Admission.snapshot a ~tenant:"t" in
  Alcotest.(check int) "offered" 1000 snap.Admission.s_offered;
  Alcotest.(check int) "admitted" !admitted snap.Admission.s_admitted;
  Alcotest.(check (float 1e-9))
    "fraction = admitted/offered"
    (float_of_int !admitted /. 1000.0)
    (Admission.admitted_fraction snap);
  Alcotest.(check (float 1e-12))
    "unseen tenant reports 1.0" 1.0
    (Admission.admitted_fraction (Admission.snapshot a ~tenant:"other"))

let test_admission_config_rejected () =
  let d = Admission.default_config in
  List.iter
    (fun (label, cfg) ->
      Alcotest.(check bool)
        label true
        (Result.is_error (Admission.validate cfg)))
    [
      ("min_rate 0", { d with Admission.min_rate = 0.0 });
      ("min_rate > 1", { d with Admission.min_rate = 1.5 });
      ("increase 0", { d with Admission.increase = 0.0 });
      ("decrease 1", { d with Admission.decrease = 1.0 });
      ( "inverted watermarks",
        { d with Admission.high_watermark = 0.2; low_watermark = 0.5 } );
      ("negative interval", { d with Admission.adjust_interval = -1.0 });
    ];
  Alcotest.(check bool)
    "default config valid" true
    (Result.is_ok (Admission.validate d))

(* ------------------------------------------------------------------ *)
(* Replay plans                                                        *)
(* ------------------------------------------------------------------ *)

let small_sim_trace () =
  let rng = Rng.create ~seed:11 () in
  let net =
    Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 5.0; 5.0 ]
  in
  Network.simulate_poisson rng net ~num_tasks:40

let test_replay_plan () =
  let trace = small_sim_trace () in
  let n_events = Array.length trace.Trace.events in
  let items = Replay.plan ~speedup:10.0 ~poison:5 ~tenants:3 trace in
  Alcotest.(check int) "total lines" (n_events + 5) (List.length items);
  Alcotest.(check int)
    "poison lines" 5
    (List.length (List.filter (fun it -> it.Replay.poison) items));
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Replay.at <= b.Replay.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by emit offset" true (sorted items);
  List.iter
    (fun it ->
      match Ingest.decode_line ~num_queues:3 it.Replay.line with
      | Ok _ when it.Replay.poison ->
          Alcotest.failf "poison line decodes cleanly: %S" it.Replay.line
      | Error m when not it.Replay.poison ->
          Alcotest.failf "clean line rejected (%s): %S" m it.Replay.line
      | _ -> ())
    items

(* ------------------------------------------------------------------ *)
(* Golden file for the qnet_serve_* metric families                    *)
(* ------------------------------------------------------------------ *)

let test_serve_metrics_golden () =
  let reg = Metrics.create_registry () in
  Serve_metrics.force_register ~registry:reg ();
  let actual = Metrics.to_prometheus reg in
  let golden = Net_helpers.read_golden "golden_serve_metrics.prom" in
  if actual <> golden then
    Alcotest.failf
      "qnet_serve_* families drifted from golden_serve_metrics.prom.@\n\
       Actual:@\n%s" actual

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end (in-process, through the route handler)           *)
(* ------------------------------------------------------------------ *)

let get d path = Daemon.handle d { Server.meth = "GET"; path; body = "" }
let post d path body = Daemon.handle d { Server.meth = "POST"; path; body }

let body_field resp key =
  match Jsonx.parse_object resp.Server.body with
  | Error m -> Alcotest.failf "unparseable response body %S: %s" resp.Server.body m
  | Ok fields -> List.assoc_opt key fields

let expect_some name = function
  | Some v -> v
  | None -> Alcotest.failf "%s: handler did not claim the route" name

(* A clean, chain-consistent stream for one tenant: each task enters
   the system (queue 0) and then visits queue 1. *)
let tenant_lines tenant n =
  List.concat_map
    (fun i ->
      let t_in = 0.1 *. float_of_int (i + 1) in
      [
        Printf.sprintf
          "{\"tenant\":\"%s\",\"task\":%d,\"state\":0,\"queue\":0,\"arrival\":0,\"departure\":%.6f}"
          tenant i t_in;
        Printf.sprintf
          "{\"tenant\":\"%s\",\"task\":%d,\"state\":1,\"queue\":1,\"arrival\":%.6f,\"departure\":%.6f}"
          tenant i t_in (t_in +. 0.05);
      ])
    (List.init n (fun i -> i))

let fast_shard_config =
  {
    Shard.default_config with
    Shard.num_queues = 2;
    refit_events = 20;
    refit_interval = 0.2;
    min_tenant_events = 12;
    chains = 1;
    min_chains = 1;
    fit_iterations = 6;
    poll_interval = 0.02;
  }

let daemon_config dir =
  {
    Daemon.default_config with
    Daemon.shards = 2;
    data_dir = dir;
    port = 0;
    dead_letter = Some (Filename.concat dir "dead.jsonl");
    shard = fast_shard_config;
  }

let with_daemon cfg f =
  match Daemon.create cfg with
  | Error m -> Alcotest.failf "daemon failed to start: %s" m
  | Ok d -> Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let push_tenant_lines ?(num_queues = 2) s lines =
  List.iter
    (fun line ->
      match Ingest.decode_line ~num_queues line with
      | Ok r ->
          let item =
            { Shard.record = r; trace = None; enqueued_at = Float.nan }
          in
          ignore (Bounded_queue.try_push (Shard.queue s) item : bool)
      | Error m -> Alcotest.failf "bad test line: %s" m)
    lines

let test_shard_ladder_demotes_to_pinned () =
  let dir = fresh_dir "qnet-ladder" in
  (* an impossible fit budget: every refit round blows the deadline, so
     the first round demotes full -> incremental and the second blown
     round in a row pins the shard; hysteresis is disabled by an
     unreachable promote_rounds *)
  let cfg =
    {
      fast_shard_config with
      Shard.fit_deadline = 1e-6;
      refit_interval = 0.1;
      promote_rounds = 1_000_000;
    }
  in
  match Shard.create ~dir:(Filename.concat dir "s0") ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          Alcotest.(check string)
            "starts at full" "full"
            (Shard.level_label (Shard.level s));
          push_tenant_lines s (tenant_lines "acme" 40);
          until ~what:"demotion to incremental" (fun () ->
              Shard.level_rank (Shard.level s) >= 1);
          (* a second blown round while already demoted pins the shard *)
          push_tenant_lines s (tenant_lines "acme" 40);
          until ~what:"pin after two blown rounds" (fun () ->
              Shard.level s = Shard.Pinned);
          match Shard.degraded_reason s with
          | Some _ -> ()
          | None -> Alcotest.fail "pinned shard must carry a degraded_reason")

let test_shard_breaker_pins () =
  let dir = fresh_dir "qnet-breaker" in
  let cfg =
    {
      fast_shard_config with
      Shard.breaker_restarts = 1;
      breaker_cooldown = 60.0;
      promote_rounds = 1_000_000;
    }
  in
  let faults = [ { Fault.shard = 0; after = 0.1; kind = Fault.Shard_crash } ] in
  match Shard.create ~faults ~dir:(Filename.concat dir "s0") ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          until ~what:"watchdog restart" (fun () -> Shard.restarts s >= 1);
          until ~what:"breaker pin" (fun () -> Shard.level s = Shard.Pinned);
          match Shard.degraded_reason s with
          | Some _ -> ()
          | None -> Alcotest.fail "breaker pin must carry a degraded_reason")

let test_shard_ladder_config_rejected () =
  let dir = fresh_dir "qnet-ladder-cfg" in
  let expect_invalid name cfg =
    match Shard.create ~dir:(Filename.concat dir name) ~id:0 cfg with
    | Error _ -> ()
    | Ok s ->
        Shard.stop s;
        Alcotest.failf "%s: invalid config accepted" name
  in
  expect_invalid "deadline"
    { fast_shard_config with Shard.fit_deadline = 0.0 };
  expect_invalid "breaker"
    { fast_shard_config with Shard.breaker_restarts = 0 };
  expect_invalid "watermarks"
    { fast_shard_config with Shard.hot_watermark = 0.2; cool_watermark = 0.5 };
  expect_invalid "promote"
    { fast_shard_config with Shard.promote_rounds = 0 };
  expect_invalid "log-bytes"
    { fast_shard_config with Shard.max_log_bytes = 16 }

(* A shard data directory whose durable log holds [lines], which the
   shard replays as it starts. *)
let dir_with_log prefix lines =
  let dir = Filename.concat (fresh_dir prefix) "s0" in
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat dir "events.log") (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc (Framed_log.frame line);
          Out_channel.output_char oc '\n')
        lines);
  dir

(* Polled without a pause, a shard's first posterior must never be seen
   on a shard still [Starting], which readers count as not healthy.
   Tenants a and b are replayed at start, so both are due at the
   worker's first pass, and a's posterior is out while b fits. *)
let test_shard_first_posterior_healthy () =
  let dir =
    dir_with_log "qnet-first-posterior" (tenant_lines "a" 20 @ tenant_lines "b" 20)
  in
  match Shard.create ~dir ~id:0 fast_shard_config with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let rec poll () =
            match Shard.posterior s ~tenant:"a" with
            | Some _ -> Shard.status s
            | None ->
                if Unix.gettimeofday () -. t0 > 30.0 then
                  Alcotest.fail "timed out waiting for the first posterior";
                Thread.yield ();
                poll ()
          in
          Alcotest.(check string)
            "status at the first posterior" "healthy"
            (Shard.status_label (poll ())))

(* 40 records pushed at once into a buffer capped at 20 leave exactly
   the newest 20, in order, however the worker batches them; the final
   checkpoint compacts the event log to that buffer. *)
let test_shard_buffer_cap () =
  let dir = Filename.concat (fresh_dir "qnet-buffer-cap") "s0" in
  let cfg =
    {
      fast_shard_config with
      Shard.max_tenant_events = 20;
      refit_events = 1_000_000;
      refit_interval = 1e9;
    }
  in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      let lines = tenant_lines "acme" 20 in
      push_tenant_lines s lines;
      Shard.stop s;
      let canonical line =
        match Ingest.decode_line ~num_queues:2 line with
        | Ok r -> Ingest.to_json_line r
        | Error m -> Alcotest.failf "bad line %S: %s" line m
      in
      let logged =
        In_channel.with_open_bin (Filename.concat dir "events.log") In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Framed_log.parse l with
               | Ok payload -> canonical payload
               | Error _ -> Alcotest.failf "bad frame %S" l)
      in
      Alcotest.(check (list string))
        "newest 20 events"
        (List.map canonical (List.filteri (fun i _ -> i >= 20) lines))
        logged

(* A shard replays its durable log at start. Replaying three times the
   default buffer cap (4,000 events) must cost about three times a
   replay of the cap, not a buffer rebuild for every record past it. *)
let test_shard_replay_past_cap () =
  let replay_words n =
    let dir = dir_with_log "qnet-replay-cap" (tenant_lines "acme" (n / 2)) in
    let cfg = { fast_shard_config with Shard.refit_events = max_int; refit_interval = 1e9 } in
    let w0 = Qnet_obs.Prof.allocated_words () in
    match Shard.create ~dir ~id:0 cfg with
    | Error m -> Alcotest.failf "shard: %s" m
    | Ok s ->
        let words = Qnet_obs.Prof.allocated_words () -. w0 in
        Alcotest.(check int) "all replayed" n (Shard.replayed_events s);
        Shard.stop s;
        words
  in
  let at_cap = replay_words 4000 and past_cap = replay_words 12000 in
  Alcotest.(check bool)
    (Printf.sprintf "3x the records cost %.1fx the allocation" (past_cap /. at_cap))
    true
    (past_cap < 4.0 *. at_cap)

(* ------------------------------------------------------------------ *)
(* Event-log compaction                                                *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A record as the shard logs it. *)
let canonical line =
  match Ingest.decode_line ~num_queues:2 line with
  | Ok r -> Ingest.to_json_line r
  | Error m -> Alcotest.failf "bad line %S: %s" line m

(* The payloads of a shard directory's active log segment. *)
let logged dir =
  read_file (Filename.concat dir "events.log")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Framed_log.parse l with
         | Ok payload -> payload
         | Error _ -> Alcotest.failf "bad frame %S" l)

(* Process-wide; it counts a checkpoint once its compaction, if any,
   is done. *)
let checkpoints () =
  Metrics.Counter.value
    (Lazy.force (Serve_metrics.counter "qnet_serve_checkpoints_total"))

let checkpoint_failures () =
  Metrics.Counter.value
    (Lazy.force (Serve_metrics.counter "qnet_serve_checkpoint_failures_total"))

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src name))))
    (Sys.readdir src)

(* Under the cap a fit round rewrites nothing: across three rounds the
   log keeps its inode, and the bytes it held before them are a prefix
   of its bytes after. *)
let test_log_rounds_append () =
  let lines = tenant_lines "acme" 60 in
  let chunk k = List.filteri (fun i _ -> i / 40 = k) lines in
  let dir = dir_with_log "qnet-log-append" (chunk 0) in
  let path = Filename.concat dir "events.log" in
  let before = read_file path in
  let inode = (Unix.stat path).Unix.st_ino in
  match Shard.create ~dir ~id:0 fast_shard_config with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      (* the 40 replayed records make the tenant due at once, and each
         chunk of 40 pushed after makes it due again *)
      until ~what:"round 1" (fun () -> Shard.rounds s >= 1);
      push_tenant_lines s (chunk 1);
      until ~what:"round 2" (fun () -> Shard.rounds s >= 2);
      push_tenant_lines s (chunk 2);
      until ~what:"round 3" (fun () -> Shard.rounds s >= 3);
      Shard.stop s;
      Alcotest.(check int) "same inode" inode (Unix.stat path).Unix.st_ino;
      Alcotest.(check bool)
        "the old bytes are a prefix" true
        (String.starts_with ~prefix:before (read_file path));
      Alcotest.(check int) "every record logged" 120 (List.length (logged dir))

(* Cap 20, 30 records: the 10 the cap trims are stale, but no more than
   the 20 live, so the round leaves all 30 lines; the graceful stop
   compacts to the newest 20. *)
let test_log_stale_within_live () =
  let dir = Filename.concat (fresh_dir "qnet-log-within") "s0" in
  let cfg =
    {
      fast_shard_config with
      Shard.max_tenant_events = 20;
      refit_events = 30;
      refit_interval = 1e9;
    }
  in
  let lines = tenant_lines "acme" 15 in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      let c0 = checkpoints () in
      push_tenant_lines s lines;
      until ~what:"the round's checkpoint" (fun () -> checkpoints () > c0);
      let at_round = List.length (logged dir) in
      Shard.stop s;
      Alcotest.(check int) "the round keeps every line" 30 at_round;
      Alcotest.(check (list string))
        "the stop keeps the newest 20"
        (List.map canonical (List.filteri (fun i _ -> i >= 10) lines))
        (logged dir)

(* Cap 20, 60 records: the 40 stale outnumber the 20 live, so the round
   compacts to the newest 20, and a shard started on a copy of the
   directory taken before the stop (a hard kill's image) replays exactly
   those. *)
let test_log_stale_past_live () =
  let dir = Filename.concat (fresh_dir "qnet-log-past") "s0" in
  let cfg =
    {
      fast_shard_config with
      Shard.max_tenant_events = 20;
      refit_events = 60;
      refit_interval = 1e9;
    }
  in
  let lines = tenant_lines "acme" 30 in
  let newest = List.map canonical (List.filteri (fun i _ -> i >= 40) lines) in
  let image = Filename.concat (fresh_dir "qnet-log-image") "s0" in
  (match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      let c0 = checkpoints () in
      push_tenant_lines s lines;
      until ~what:"the round's checkpoint" (fun () -> checkpoints () > c0);
      copy_dir dir image;
      Shard.stop s);
  Alcotest.(check (list string)) "the round compacts" newest (logged image);
  match Shard.create ~dir:image ~id:0 { cfg with Shard.refit_events = max_int } with
  | Error m -> Alcotest.failf "shard on the image: %s" m
  | Ok s ->
      let replayed = Shard.replayed_events s in
      Shard.stop s;
      Alcotest.(check int) "the image replays the newest 20" 20 replayed;
      Alcotest.(check (list string)) "and keeps them" newest (logged image)

(* A frame replay quarantines is stale too: the graceful stop compacts
   it away, so the next start finds no damage. *)
let test_log_quarantined_frame_compacted () =
  let lines = tenant_lines "acme" 5 in
  let dir = dir_with_log "qnet-log-quarantine" lines in
  (* the first frame's last payload byte changes: same shape, bad CRC *)
  let path = Filename.concat dir "events.log" in
  let b = Bytes.of_string (read_file path) in
  Bytes.set b (Bytes.index b '\n' - 1) ']';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let cfg =
    { fast_shard_config with Shard.refit_events = max_int; refit_interval = 1e9 }
  in
  let corrupt_frames_at_start () =
    match Shard.create ~dir ~id:0 cfg with
    | Error m -> Alcotest.failf "shard: %s" m
    | Ok s ->
        let n = Shard.log_corrupt_frames s in
        Shard.stop s;
        n
  in
  Alcotest.(check int) "the first start quarantines it" 1 (corrupt_frames_at_start ());
  Alcotest.(check int) "the second finds no damage" 0 (corrupt_frames_at_start ());
  Alcotest.(check (list string))
    "the other records stay" (List.map canonical (List.tl lines)) (logged dir)

(* The active segment rotates once the file passes [max_log_bytes],
   counting the bytes it held when the shard opened it. *)
let test_log_rotates_on_file_size () =
  let framed_bytes lines =
    List.fold_left
      (fun n l -> n + String.length (Framed_log.frame l) + 1)
      0 lines
  in
  let rec under_limit n =
    if framed_bytes (tenant_lines "acme" (n + 1)) > 4096 then n
    else under_limit (n + 1)
  in
  let lines = tenant_lines "acme" (under_limit 1) in
  let dir = dir_with_log "qnet-log-rotate" lines in
  let cfg =
    {
      fast_shard_config with
      Shard.max_log_bytes = 4096;
      refit_events = max_int;
      refit_interval = 1e9;
    }
  in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      push_tenant_lines s (tenant_lines "beta" 2);
      Shard.stop s;
      let rotated = Filename.concat dir "events.log.1" in
      Alcotest.(check bool) "events.log.1 written" true (Sys.file_exists rotated);
      let segment_lines path =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.length
      in
      Alcotest.(check int)
        "both segments hold every record"
        (List.length lines + 4)
        (segment_lines rotated + segment_lines (Filename.concat dir "events.log"))

(* A file write that fails only at its final flush: the tmp path is a
   link to /dev/full, which opens for writing, lets the bytes into the
   channel's buffer and refuses them at the flush. The write counts as a
   failed checkpoint, [path] keeps its bytes (and stays a file), and no
   tmp file is left. [path]'s kind is checked before it is read: a
   [path] renamed onto /dev/full would read zeros for ever. *)
let check_flush_failure ~what ~path ~before f0 =
  let tmp = path ^ ".tmp" in
  until ~what (fun () -> checkpoint_failures () > f0);
  Alcotest.(check bool)
    (Filename.basename path ^ " is still a file") true
    ((Unix.lstat path).Unix.st_kind = Unix.S_REG);
  Alcotest.(check string) (Filename.basename path ^ " keeps its bytes") before (read_file path);
  Alcotest.(check bool) "no tmp file left" false
    (match Unix.lstat tmp with
    | _ -> true
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false)

let test_checkpoint_flush_failure () =
  let dir = Filename.concat (fresh_dir "qnet-ckpt-full") "s0" in
  let cfg = { fast_shard_config with Shard.refit_events = 20; refit_interval = 1e9 } in
  let lines = tenant_lines "acme" 20 in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          let path = Filename.concat dir "shard.ckpt" in
          let c0 = checkpoints () in
          push_tenant_lines s (List.filteri (fun i _ -> i < 20) lines);
          until ~what:"the first checkpoint" (fun () -> checkpoints () > c0);
          let before = read_file path in
          Unix.symlink "/dev/full" (path ^ ".tmp");
          let f0 = checkpoint_failures () in
          push_tenant_lines s (List.filteri (fun i _ -> i >= 20) lines);
          check_flush_failure ~what:"the failed checkpoint" ~path ~before f0)

(* The same for the event log's compaction: cap 20 and 60 records, so
   the round's checkpoint compacts, into a link to /dev/full. *)
let test_compaction_flush_failure () =
  let dir = Filename.concat (fresh_dir "qnet-log-full") "s0" in
  let cfg =
    {
      fast_shard_config with
      Shard.max_tenant_events = 20;
      refit_events = 60;
      refit_interval = 1e9;
    }
  in
  let lines = tenant_lines "acme" 30 in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          let path = Filename.concat dir "events.log" in
          Unix.symlink "/dev/full" (path ^ ".tmp");
          let f0 = checkpoint_failures () in
          push_tenant_lines s lines;
          until ~what:"every record logged" (fun () ->
              (Unix.lstat path).Unix.st_kind <> Unix.S_REG
              || List.length (logged dir) = 60);
          let before =
            String.concat "" (List.map (fun l -> Framed_log.frame (canonical l) ^ "\n") lines)
          in
          check_flush_failure ~what:"the failed compaction" ~path ~before f0)

(* ------------------------------------------------------------------ *)
(* Refit golden                                                        *)
(* ------------------------------------------------------------------ *)

(* One tenant's stream in two batches of 61 records, cut from a seeded
   tandem trace (tasks 0-19, then 20-39). Each batch repeats one record
   exactly, and in the first, task 4's last arrival sits halfway into
   its visit (clock skew): the lenient rebuild drops both. *)
let golden_batches () =
  let trace =
    Network.simulate_poisson (Rng.create ~seed:31 ())
      (Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0; 10.0 ])
      ~num_tasks:40
  in
  let line (e : Trace.event) =
    let arrival =
      if e.Trace.task = 4 && e.Trace.queue = 2 then
        (e.Trace.arrival +. e.Trace.departure) /. 2.0
      else e.Trace.arrival
    in
    Ingest.to_json_line
      {
        Ingest.tenant = "golden";
        task = e.Trace.task;
        state = e.Trace.state;
        queue = e.Trace.queue;
        arrival;
        departure = e.Trace.departure;
      }
  in
  let batch lo =
    let lines =
      Array.to_list trace.Trace.events
      |> List.filter (fun e -> e.Trace.task >= lo && e.Trace.task < lo + 20)
      |> List.map line
    in
    lines @ [ List.nth lines 10 ]
  in
  (batch 0, batch 20)

(* A round fires only once a whole batch is in (refit_events = 61, no
   interval), and the tiny deadline demotes the shard after round 1, so
   round 1 is a full fit of the first batch and round 2 an incremental
   fit of both. Their posteriors are pinned bit for bit. *)
let test_refit_golden () =
  let dir = fresh_dir "qnet-refit-golden" in
  let cfg =
    {
      fast_shard_config with
      Shard.num_queues = 3;
      refit_events = 61;
      refit_interval = 1e9;
      fit_deadline = 1e-6;
    }
  in
  let render (p : Shard.posterior) =
    let hex a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
    Printf.sprintf "%s round %d iteration %d events %d rates %s service %s"
      p.Shard.fit_mode p.Shard.round p.Shard.iteration p.Shard.num_events
      (hex p.Shard.params.Qnet_core.Params.rates)
      (hex p.Shard.mean_service)
  in
  match Shard.create ~dir:(Filename.concat dir "s0") ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          let first, second = golden_batches () in
          let fitted round lines =
            push_tenant_lines ~num_queues:3 s lines;
            until ~what:(Printf.sprintf "round %d posterior" round) (fun () ->
                match Shard.posterior s ~tenant:"golden" with
                | Some p -> p.Shard.round = round
                | None -> false);
            render (Option.get (Shard.posterior s ~tenant:"golden"))
          in
          let p1 = fitted 1 first in
          let p2 = fitted 2 second in
          Alcotest.(check (list string))
            "posteriors"
            [
              "full round 1 iteration 6 events 59 rates 0x1.7bbdd23cfdb0cp+2 \
               0x1.f7b2e78edd132p+3 0x1.3841110362892p+3 service \
               0x1.59293f8d2de13p-3 0x1.04380f16c0c39p-4 0x1.a3c2b784dc16p-4";
              "incremental round 2 iteration 14 events 119 rates \
               0x1.f868c30c250a9p+2 0x1.6a40a30e3ad75p+3 0x1.432825e6605a6p+3 \
               service 0x1.03da3da4434b6p-3 0x1.69d3320701e54p-4 \
               0x1.9599468a8f496p-4";
            ]
            [ p1; p2 ])

let test_daemon_ingest_and_posterior () =
  let dir = fresh_dir "qnet-daemon" in
  with_daemon (daemon_config dir) (fun d ->
      (* batch with two poison lines: accepted wholesale, poison
         quarantined exactly once *)
      let lines = tenant_lines "acme" 20 @ [ "garbage line"; "t0,1,0" ] in
      let resp =
        expect_some "ingest" (post d "/ingest" (String.concat "\n" lines))
      in
      Alcotest.(check string) "accepted" "200 OK" resp.Server.status;
      (match body_field resp "accepted" with
      | Some (Jsonx.Num n) ->
          Alcotest.(check int) "events accepted" 40 (int_of_float n)
      | _ -> Alcotest.fail "missing accepted count");
      (match body_field resp "quarantined" with
      | Some (Jsonx.Num n) ->
          Alcotest.(check int) "poison quarantined" 2 (int_of_float n)
      | _ -> Alcotest.fail "missing quarantined count");
      Alcotest.(check int) "dead letter" 2 (Daemon.dead_letter_count d);
      (* the posterior appears once the shard has fitted *)
      until ~what:"posterior ready" (fun () ->
          match get d "/tenants/acme/posterior.json" with
          | Some r -> (
              String.equal r.Server.status "200 OK"
              &&
              match body_field r "ready" with
              | Some (Jsonx.Bool b) -> b
              | _ -> false)
          | None -> false);
      let post_resp =
        expect_some "posterior" (get d "/tenants/acme/posterior.json")
      in
      (match body_field post_resp "stale" with
      | Some (Jsonx.Bool false) -> ()
      | _ -> Alcotest.fail "fresh posterior must not be stale");
      (match body_field post_resp "rates" with
      | Some (Jsonx.Arr rates) ->
          Alcotest.(check int) "one rate per queue" 2 (List.length rates)
      | _ -> Alcotest.fail "missing rates");
      (* unknown tenants 404, never 500 *)
      let missing =
        expect_some "unknown tenant" (get d "/tenants/nosuch/posterior.json")
      in
      Alcotest.(check string) "404" "404 Not Found" missing.Server.status;
      (* shards.json reports both shards *)
      let shards = expect_some "shards" (get d "/shards.json") in
      (match body_field shards "shards" with
      | Some (Jsonx.Arr l) -> Alcotest.(check int) "two shards" 2 (List.length l)
      | _ -> Alcotest.fail "missing shards array");
      (* unrelated routes fall through to the built-ins *)
      Alcotest.(check bool)
        "metrics falls through" true
        (Daemon.handle d { Server.meth = "GET"; path = "/metrics"; body = "" }
         = None))

let test_daemon_backpressure_batch_atomic () =
  let dir = fresh_dir "qnet-429" in
  let cfg =
    {
      (daemon_config dir) with
      Daemon.shard = { fast_shard_config with Shard.queue_capacity = 8 };
    }
  in
  with_daemon cfg (fun d ->
      let before_dead = Daemon.dead_letter_count d in
      (* a batch bigger than any queue can take — with poison inside *)
      let lines = tenant_lines "acme" 30 @ [ "poison!" ] in
      let resp =
        expect_some "overflow" (post d "/ingest" (String.concat "\n" lines))
      in
      Alcotest.(check string)
        "whole batch rejected" "429 Too Many Requests" resp.Server.status;
      Alcotest.(check bool)
        "Retry-After present" true
        (List.mem_assoc "Retry-After" resp.Server.extra_headers);
      (* batch-atomic: the rejected batch had no side effects at all *)
      Alcotest.(check int)
        "nothing quarantined on reject" before_dead
        (Daemon.dead_letter_count d);
      (* a batch that fits is accepted *)
      let ok =
        expect_some "small batch"
          (post d "/ingest" (String.concat "\n" (tenant_lines "acme" 3)))
      in
      Alcotest.(check string) "accepted" "200 OK" ok.Server.status)

let test_daemon_resume_and_stale () =
  let dir = fresh_dir "qnet-resume" in
  let iterations_before = ref 0 in
  with_daemon (daemon_config dir) (fun d ->
      let _ =
        expect_some "ingest"
          (post d "/ingest" (String.concat "\n" (tenant_lines "acme" 20)))
      in
      until ~what:"first fit" (fun () ->
          match get d "/tenants/acme/posterior.json" with
          | Some r -> (
              match body_field r "ready" with
              | Some (Jsonx.Bool b) -> b
              | _ -> false)
          | None -> false);
      iterations_before :=
        List.fold_left
          (fun acc s -> Stdlib.max acc (Shard.iterations s))
          0 (Daemon.shards d));
  (* restart over the same data dir, with refits effectively disabled
     so the resumed posterior stays checkpoint-sourced *)
  let frozen =
    {
      (daemon_config dir) with
      Daemon.shard =
        {
          fast_shard_config with
          Shard.refit_events = 1_000_000;
          refit_interval = 1e9;
          min_tenant_events = 1_000_000;
          max_tenant_events = 2_000_000;
        };
    }
  in
  with_daemon frozen (fun d ->
      Alcotest.(check bool)
        "a shard resumed" true
        (List.exists Shard.resumed (Daemon.shards d));
      let resumed_iters =
        List.fold_left
          (fun acc s -> Stdlib.max acc (Shard.iterations s))
          0 (Daemon.shards d)
      in
      Alcotest.(check bool)
        "iteration counters monotone across restart" true
        (resumed_iters >= !iterations_before && !iterations_before > 0);
      let resp =
        expect_some "posterior after resume"
          (get d "/tenants/acme/posterior.json")
      in
      Alcotest.(check string) "still served" "200 OK" resp.Server.status;
      match body_field resp "stale" with
      | Some (Jsonx.Bool true) -> ()
      | _ -> Alcotest.fail "checkpoint-sourced posterior must be stale-flagged")

let test_daemon_shard_crash_recovers () =
  let dir = fresh_dir "qnet-crash" in
  let cfg =
    {
      (daemon_config dir) with
      Daemon.faults =
        [ { Fault.shard = 0; after = 0.2; kind = Fault.Shard_crash } ];
    }
  in
  with_daemon cfg (fun d ->
      let shard0 =
        List.find (fun s -> Shard.id s = 0) (Daemon.shards d)
      in
      until ~what:"crash + restart" (fun () -> Shard.restarts shard0 >= 1);
      until ~what:"return to healthy" (fun () ->
          match Shard.status shard0 with Shard.Healthy -> true | _ -> false);
      (* the daemon kept serving throughout *)
      let shards = expect_some "shards" (get d "/shards.json") in
      Alcotest.(check string) "shards 200" "200 OK" shards.Server.status)

(* ------------------------------------------------------------------ *)
(* Profiler routes (GET /profile.json, POST /profile/{start,stop})     *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains name hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" name needle hay

(* The profiler is process-global state; the daemon only drives it.
   Each test leaves it stopped so suites stay order-independent. *)
let test_daemon_profile_routes () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof" in
  with_daemon (daemon_config dir) (fun d ->
      let off = expect_some "/profile.json" (get d "/profile.json") in
      Alcotest.(check string) "snapshot 200" "200 OK" off.Server.status;
      check_contains "off by default" off.Server.body "\"running\":false";
      let started =
        expect_some "/profile/start" (post d "/profile/start" "")
      in
      Alcotest.(check string) "start 200" "200 OK" started.Server.status;
      check_contains "start reports running" started.Server.body
        "\"running\":true";
      let on = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "snapshot running" on.Server.body "\"running\":true";
      check_contains "snapshot has pauses" on.Server.body "\"pauses\":{";
      let stopped = expect_some "/profile/stop" (post d "/profile/stop" "") in
      Alcotest.(check string) "stop 200" "200 OK" stopped.Server.status;
      check_contains "stop reports stopped" stopped.Server.body
        "\"running\":false";
      let after = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "data readable after stop" after.Server.body
        "\"running\":false";
      check_contains "pauses survive stop" after.Server.body "\"pauses\":{")

let test_daemon_profile_start_rejects () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof-bad" in
  with_daemon (daemon_config dir) (fun d ->
      let bad_json =
        expect_some "/profile/start" (post d "/profile/start" "{nope")
      in
      Alcotest.(check string) "malformed body 400" "400 Bad Request"
        bad_json.Server.status;
      let old_setting =
        expect_some "/profile/start"
          (post d "/profile/start" "{\"sampling_rate\":0.5}")
      in
      Alcotest.(check string) "any body 400" "400 Bad Request"
        old_setting.Server.status;
      let snap = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "still not running" snap.Server.body "\"running\":false")

let test_daemon_profile_on_start () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof-boot" in
  let cfg =
    { (daemon_config dir) with Daemon.profile_on_start = true }
  in
  with_daemon cfg (fun d ->
      let snap = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "profiling from boot" snap.Server.body "\"running\":true");
  (* Daemon.stop must have stopped the session it started. *)
  Alcotest.(check bool) "stopped with the daemon" false (Qnet_obs.Prof.running ())

let () =
  Alcotest.run "qnet_serve"
    [
      ( "ingest",
        [
          Alcotest.test_case "decode json" `Quick test_decode_json;
          Alcotest.test_case "state optional" `Quick test_decode_json_state_optional;
          Alcotest.test_case "decode csv" `Quick test_decode_csv;
          Alcotest.test_case "rejects poison" `Quick test_decode_rejects;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "tenant keys" `Quick test_valid_tenant;
          Alcotest.test_case "dead letter" `Quick test_dead_letter;
        ] );
      ( "bounded-queue",
        [
          Alcotest.test_case "shed at capacity" `Quick test_queue_shed;
          Alcotest.test_case "fifo batches" `Quick test_queue_fifo_batch;
          Alcotest.test_case "push_wait blocks" `Quick test_queue_push_wait;
          Alcotest.test_case "close semantics" `Quick test_queue_close;
          Alcotest.test_case "stress: shed accounting" `Quick
            test_queue_stress_shed_accounting;
          Alcotest.test_case "stress: block lossless" `Quick
            test_queue_stress_block_lossless;
        ] );
      ( "framed-log",
        [
          Alcotest.test_case "crc32 check value" `Quick test_framed_crc32;
          Alcotest.test_case "crc32 ≡ Int32 oracle" `Quick test_framed_crc32_oracle;
          Alcotest.test_case "crc32 allocates nothing" `Quick
            test_framed_crc32_allocates_nothing;
          Alcotest.test_case "parse verdicts" `Quick test_framed_parse;
          Alcotest.test_case "replay + torn tail" `Quick
            test_framed_replay_and_torn_tail;
        ] );
      ( "admission",
        [
          Alcotest.test_case "aimd rate control" `Quick test_admission_aimd;
          Alcotest.test_case "dead band does not throttle" `Quick
            test_admission_dead_band_does_not_throttle;
          Alcotest.test_case "coin + accounting" `Quick
            test_admission_coin_and_accounting;
          Alcotest.test_case "config rejected" `Quick
            test_admission_config_rejected;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "blown deadlines pin" `Quick
            test_shard_ladder_demotes_to_pinned;
          Alcotest.test_case "restart breaker pins" `Quick
            test_shard_breaker_pins;
          Alcotest.test_case "config validation" `Quick
            test_shard_ladder_config_rejected;
        ] );
      ( "refit",
        [
          Alcotest.test_case "golden full then incremental" `Quick test_refit_golden;
          Alcotest.test_case "first posterior on a healthy shard" `Quick
            test_shard_first_posterior_healthy;
          Alcotest.test_case "buffer keeps the newest events" `Quick
            test_shard_buffer_cap;
          Alcotest.test_case "replay past the cap trims once" `Quick
            test_shard_replay_past_cap;
        ] );
      ( "event-log",
        [
          Alcotest.test_case "rounds under the cap append" `Quick
            test_log_rounds_append;
          Alcotest.test_case "stale within live is kept" `Quick
            test_log_stale_within_live;
          Alcotest.test_case "stale past live compacts" `Quick
            test_log_stale_past_live;
          Alcotest.test_case "a quarantined frame is stale" `Quick
            test_log_quarantined_frame_compacted;
          Alcotest.test_case "rotates on the file's size" `Quick
            test_log_rotates_on_file_size;
          Alcotest.test_case "a failed checkpoint flush keeps the file" `Quick
            test_checkpoint_flush_failure;
          Alcotest.test_case "a failed compaction flush keeps the log" `Quick
            test_compaction_flush_failure;
        ] );
      ( "router",
        [ Alcotest.test_case "stable fnv routing" `Quick test_router ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_ckpt_roundtrip;
          Alcotest.test_case "rejects corrupt" `Quick test_ckpt_rejects;
          Alcotest.test_case "backoff schedule" `Quick test_backoff;
        ] );
      ( "faults",
        [ Alcotest.test_case "service fault specs" `Quick test_service_fault_parse ] );
      ( "replay",
        [ Alcotest.test_case "plan shape" `Quick test_replay_plan ] );
      ( "metrics",
        [ Alcotest.test_case "golden families" `Quick test_serve_metrics_golden ] );
      ( "daemon",
        [
          Alcotest.test_case "ingest to posterior" `Quick
            test_daemon_ingest_and_posterior;
          Alcotest.test_case "backpressure batch-atomic" `Quick
            test_daemon_backpressure_batch_atomic;
          Alcotest.test_case "resume + stale flag" `Quick
            test_daemon_resume_and_stale;
          Alcotest.test_case "crash recovery" `Quick
            test_daemon_shard_crash_recovers;
        ] );
      ( "profile",
        [
          Alcotest.test_case "start/snapshot/stop round-trip" `Quick
            test_daemon_profile_routes;
          Alcotest.test_case "bad start bodies rejected" `Quick
            test_daemon_profile_start_rejects;
          Alcotest.test_case "profile_on_start config" `Quick
            test_daemon_profile_on_start;
        ] );
    ]
