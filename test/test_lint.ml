(* qnet_lint: every rule against small inline sources (positive,
   negative, suppressed), the suppression/baseline machinery, the
   reporters, and a whole-repo smoke test asserting the tree is
   lint-clean. *)

module Finding = Qnet_lint_lib.Finding
module Driver = Qnet_lint_lib.Driver
module Rules = Qnet_lint_lib.Rules
module Baseline = Qnet_lint_lib.Baseline
module Suppress = Qnet_lint_lib.Suppress
module Reporter = Qnet_lint_lib.Reporter
module Concurrency = Qnet_lint_lib.Concurrency
module Jsonx = Qnet_obs.Jsonx

let default_path = "lib/core/sample.ml"

let active ?only ?(path = default_path) src =
  fst (Driver.lint_source ?only ~path src)

let suppressed ?only ?(path = default_path) src =
  snd (Driver.lint_source ?only ~path src)

let codes findings = List.map (fun f -> f.Finding.code) findings

let contains hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let check_codes what expected findings =
  Alcotest.(check (list string)) what expected (codes findings)

(* --------------------------------------------------------------- *)
(* D001                                                             *)

let test_d001_positive () =
  let fs = active "let t = Unix.gettimeofday ()" in
  check_codes "gettimeofday flagged" [ "D001" ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "line" 1 f.Finding.line;
  check_codes "Unix.time flagged" [ "D001" ] (active "let t = Unix.time ()");
  check_codes "Random flagged" [ "D001" ] (active "let r = Random.int 10");
  check_codes "Random alias flagged" [ "D001" ] (active "module R = Random");
  check_codes "bin/ is linted too" [ "D001" ]
    (active ~path:"bin/tool.ml" "let t = Unix.gettimeofday ()")

let test_d001_negative () =
  check_codes "clock.ml allowlisted" []
    (active ~path:"lib/obs/clock.ml" "let now () = Unix.gettimeofday ()");
  check_codes "Rng is fine" [] (active "let x r = Rng.float_unit r");
  check_codes "other Unix fine" [] (active "let p () = Unix.getpid ()")

(* --------------------------------------------------------------- *)
(* D002                                                             *)

let test_d002_positive () =
  check_codes "top-level Hashtbl" [ "D002" ]
    (active "let table = Hashtbl.create 16");
  check_codes "top-level ref" [ "D002" ] (active "let cache = ref None");
  check_codes "inside a submodule" [ "D002" ]
    (active "module M = struct let t = Hashtbl.create 4 end")

let test_d002_negative () =
  check_codes "created per call" [] (active "let make () = Hashtbl.create 16");
  check_codes "Atomic is the sanctioned form" []
    (active "let state = Atomic.make 0");
  check_codes "domain-local state is per-domain" []
    (active "let key = Domain.DLS.new_key (fun () -> ref [])");
  check_codes "lazy is forced under its own lock" []
    (active "let t = lazy (Hashtbl.create 4)");
  check_codes "experiments are single-domain drivers" []
    (active ~path:"lib/experiments/foo.ml" "let table = Hashtbl.create 16");
  check_codes "bin executables out of scope" []
    (active ~path:"bin/tool.ml" "let table = Hashtbl.create 16")

(* --------------------------------------------------------------- *)
(* E001                                                             *)

let test_e001_positive () =
  check_codes "wildcard swallow" [ "E001" ]
    (active "let f g = try g () with _ -> 0");
  check_codes "unused variable swallow" [ "E001" ]
    (active "let f g = try g () with _e -> 0");
  check_codes "catch-all branch of a multi-case handler" [ "E001" ]
    (active "let f g = try g () with Failure _ -> 1 | _ -> 0")

let test_e001_negative () =
  check_codes "specific exception" []
    (active "let f g = try g () with Failure _ -> 0");
  check_codes "re-raise is hygiene" []
    (active "let f g = try g () with e -> cleanup (); raise e");
  check_codes "inspected exception" []
    (active "let f g = try g () with exn -> log (Printexc.to_string exn)")

(* --------------------------------------------------------------- *)
(* E002                                                             *)

let test_e002_positive () =
  check_codes "lock without unlock" [ "E002" ]
    (active "let f m = Mutex.lock m; work ()");
  check_codes "two locks one unlock" [ "E002" ]
    (active "let f m n = Mutex.lock m; Mutex.lock n; Mutex.unlock m")

let test_e002_negative () =
  check_codes "balanced lock/unlock" []
    (active "let f m = Mutex.lock m; let r = work () in Mutex.unlock m; r");
  check_codes "Fun.protect guards the section" []
    (active
       "let f m = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock \
        m) work");
  check_codes "no locking at all" [] (active "let f () = work ()")

(* --------------------------------------------------------------- *)
(* P001                                                             *)

let test_p001_positive () =
  check_codes "print_endline in lib" [ "P001" ]
    (active "let f () = print_endline \"x\"");
  check_codes "Printf.printf in lib" [ "P001" ]
    (active "let f () = Printf.printf \"%d\" 3")

let test_p001_negative () =
  check_codes "experiments own their tables" []
    (active ~path:"lib/experiments/fig9.ml" "let f () = print_endline \"x\"");
  check_codes "bin owns stdout" []
    (active ~path:"bin/tool.ml" "let f () = print_endline \"x\"");
  check_codes "Printf.sprintf is pure" []
    (active "let f x = Printf.sprintf \"%d\" x")

(* --------------------------------------------------------------- *)
(* O001 / F001                                                      *)

let test_o001 () =
  check_codes "Obj.magic" [ "O001" ] (active "let f x = Obj.magic x");
  check_codes "Obj.repr" [ "O001" ] (active "let f x = Obj.repr x");
  check_codes "no Obj" [] (active "let f x = x")

let test_f001_positive () =
  check_codes "= on 0.0" [ "F001" ] (active "let f x = x = 0.0");
  check_codes "<> on 1.0" [ "F001" ] (active "let f x = x <> 1.0");
  check_codes "= nan is always false" [ "F001" ] (active "let f x = x = nan");
  check_codes "literal on the left" [ "F001" ] (active "let f x = 0.0 = x")

let test_f001_negative () =
  check_codes "ordering comparisons are fine" [] (active "let f x = x < 0.0");
  check_codes "Float.equal is the fix" []
    (active "let f x = Float.equal x 0.0");
  check_codes "int literals out of scope" [] (active "let f x = x = 0")

(* --------------------------------------------------------------- *)
(* Suppressions                                                     *)

let test_suppression_trailing () =
  let src =
    "let t = Unix.gettimeofday () (* qnet-lint: allow D001 test fixture *)"
  in
  check_codes "no active finding" [] (active src);
  match suppressed src with
  | [ (f, reason) ] ->
      Alcotest.(check string) "code" "D001" f.Finding.code;
      Alcotest.(check string) "reason" "test fixture" reason
  | other ->
      Alcotest.failf "expected one suppressed finding, got %d"
        (List.length other)

let test_suppression_standalone () =
  let src =
    "(* qnet-lint: allow D001 test fixture *)\nlet t = Unix.gettimeofday ()"
  in
  check_codes "no active finding" [] (active src);
  Alcotest.(check int) "one suppressed" 1 (List.length (suppressed src))

let test_suppression_wrong_code () =
  let src =
    "let t = Unix.gettimeofday () (* qnet-lint: allow F001 wrong code *)"
  in
  check_codes "D001 still fires" [ "D001" ] (active src);
  Alcotest.(check int) "nothing suppressed" 0 (List.length (suppressed src))

let test_suppression_needs_reason () =
  let src = "(* qnet-lint: allow D001 *)\nlet x = 1" in
  check_codes "reasonless directive is itself a finding" [ "S001" ]
    (active src)

let test_suppression_in_string_ignored () =
  let src = "let s = \"(* qnet-lint: allow D001 nope *)\"" in
  check_codes "directives inside string literals are text" [] (active src)

(* --------------------------------------------------------------- *)
(* Parse failures                                                   *)

let test_parse_error () =
  match active "let = junk (" with
  | [ f ] -> Alcotest.(check string) "code" "X001" f.Finding.code
  | other -> Alcotest.failf "expected one X001, got %d" (List.length other)

(* --------------------------------------------------------------- *)
(* Driver: temp trees, baseline, M001                               *)

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let with_temp_tree files f =
  let root = Filename.temp_dir "qnet_lint_test" "" in
  List.iter
    (fun (rel, content) ->
      let abs = Filename.concat root rel in
      let rec ensure dir =
        if not (Sys.file_exists dir) then begin
          ensure (Filename.dirname dir);
          Sys.mkdir dir 0o755
        end
      in
      ensure (Filename.dirname abs);
      write_file abs content)
    files;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm root)
    (fun () -> f root)

let test_driver_m001 () =
  with_temp_tree
    [
      ("lib/a.ml", "let answer = 42\n");
      ("lib/a.mli", "val answer : int\n");
      ("lib/b.ml", "let broken = 43\n");
    ]
    (fun root ->
      let o = Driver.run (Driver.default_options root) in
      check_codes "only the module without an mli" [ "M001" ] o.Driver.findings;
      Alcotest.(check string)
        "finding names the file" "lib/b.ml"
        (List.hd o.Driver.findings).Finding.file;
      Alcotest.(check int) "exit nonzero" 1 (Driver.exit_code o))

let test_driver_baseline () =
  with_temp_tree
    [
      ("lib/a.ml", "let t = Unix.gettimeofday ()\n");
      ("lib/a.mli", "val t : float\n");
    ]
    (fun root ->
      let o1 = Driver.run (Driver.default_options root) in
      check_codes "fresh finding" [ "D001" ] o1.Driver.findings;
      Baseline.save
        (Filename.concat root Driver.default_baseline)
        o1.Driver.findings;
      let o2 = Driver.run (Driver.default_options root) in
      check_codes "baselined away" [] o2.Driver.findings;
      check_codes "still visible as baselined" [ "D001" ] o2.Driver.baselined;
      Alcotest.(check int) "exit clean" 0 (Driver.exit_code o2))

(* Regenerating a baseline must be idempotent: the second run's
   findings arrive already split into fresh + baselined, and the
   rewrite keeps both (bin/qnet_lint.ml concatenates them). *)
let test_baseline_regenerate_idempotent () =
  with_temp_tree
    [
      ("lib/a.ml", "let t = Unix.gettimeofday ()\n");
      ("lib/a.mli", "val t : float\n");
    ]
    (fun root ->
      let path = Filename.concat root Driver.default_baseline in
      let o1 = Driver.run (Driver.default_options root) in
      Baseline.save path (o1.Driver.findings @ o1.Driver.baselined);
      let first = Baseline.to_string (o1.Driver.findings @ o1.Driver.baselined) in
      let o2 = Driver.run (Driver.default_options root) in
      check_codes "all grandfathered" [] o2.Driver.findings;
      Alcotest.(check string)
        "rewrite reproduces the same baseline" first
        (Baseline.to_string (o2.Driver.findings @ o2.Driver.baselined)))

let test_baseline_deterministic () =
  let f code file line =
    Finding.v ~code ~file ~line ~col:0 "irrelevant"
  in
  let shuffled =
    [ f "F001" "lib/z.ml" 9; f "D001" "./lib/b.ml" 3; f "D001" "lib/a.ml" 7;
      f "D001" "lib\\a.ml" 7; f "D001" "lib/a.ml" 2 ]
  in
  let rendered = Baseline.to_string shuffled in
  Alcotest.(check string)
    "same text whatever the walk order" rendered
    (Baseline.to_string (List.rev shuffled));
  match Baseline.of_string rendered with
  | Error m -> Alcotest.fail m
  | Ok entries ->
      Alcotest.(check (list string))
        "sorted by (code, path, line), duplicates dropped"
        [ "D001:lib/a.ml:2"; "D001:lib/a.ml:7"; "D001:lib/b.ml:3";
          "F001:lib/z.ml:9" ]
        (List.map
           (fun e ->
             Printf.sprintf "%s:%s:%d" e.Baseline.code e.Baseline.file
               e.Baseline.line)
           entries)

let test_baseline_normalized_covers () =
  let e = { Baseline.code = "D001"; file = "./lib/x.ml"; line = 7 } in
  let f = Finding.v ~code:"D001" ~file:"lib\\x.ml" ~line:7 ~col:0 "m" in
  Alcotest.(check bool)
    "windows separators and ./ prefixes compare equal" true
    (Baseline.covers [ e ] f)

let test_baseline_round_trip () =
  let f =
    Finding.v ~code:"D001" ~file:"lib/x.ml" ~line:7 ~col:3 "irrelevant"
  in
  match Baseline.of_string (Baseline.to_string [ f ]) with
  | Ok [ e ] ->
      Alcotest.(check string) "code" "D001" e.Baseline.code;
      Alcotest.(check string) "file" "lib/x.ml" e.Baseline.file;
      Alcotest.(check int) "line" 7 e.Baseline.line;
      Alcotest.(check bool) "covers" true (Baseline.covers [ e ] f)
  | Ok other -> Alcotest.failf "expected one entry, got %d" (List.length other)
  | Error m -> Alcotest.fail m

(* --------------------------------------------------------------- *)
(* Deep (cross-module) analysis: C001-C005, racy-ok, S002           *)

(* Each fixture is a temp tree linted with [deep = true]. The
   assertions look only at concurrency codes so the fixtures don't
   have to dodge the shallow rules (D002 fires on every top-level ref
   these fixtures need). *)
let deep_run files f =
  with_temp_tree files (fun root ->
      f (Driver.run { (Driver.default_options root) with Driver.deep = true }))

let concurrency_codes o =
  codes o.Driver.findings
  |> List.filter (fun c -> c.[0] = 'C' || c = "S002")

let suppressed_concurrency o =
  codes (List.map fst o.Driver.suppressed)
  |> List.filter (fun c -> c.[0] = 'C')

let report_of o =
  match o.Driver.deep with
  | Some (r, _) -> r
  | None -> Alcotest.fail "deep run produced no report"

(* C001: bare ref mutated by a function a sibling module hands to
   Domain.spawn. The declaring unit must itself mention concurrency
   vocabulary (the unused mutex) to contribute entities. *)
let c001_state guard =
  [ ( "lib/state.ml",
      "let lock = Mutex.create ()\n" ^ "let cache = ref 0" ^ guard ^ "\n"
      ^ "let bump () = cache := !cache + 1\n" );
    ("lib/worker.ml", "let start () = Domain.spawn (fun () -> State.bump ())\n")
  ]

let test_deep_c001_positive () =
  deep_run (c001_state "") (fun o ->
      Alcotest.(check (list string)) "flagged" [ "C001" ] (concurrency_codes o);
      let f =
        List.find (fun f -> f.Finding.code = "C001") o.Driver.findings
      in
      Alcotest.(check string) "at the bare access" "lib/state.ml"
        f.Finding.file;
      Alcotest.(check int) "access line" 3 f.Finding.line)

let test_deep_c001_suppressed () =
  deep_run
    (c001_state "  (* qnet-lint: racy-ok C001 test fixture *)")
    (fun o ->
      Alcotest.(check (list string)) "no active" [] (concurrency_codes o);
      Alcotest.(check (list string))
        "suppressed via the declaration line" [ "C001" ]
        (suppressed_concurrency o))

let test_deep_c001_clean () =
  deep_run
    [ ( "lib/state.ml",
        "let lock = Mutex.create ()\n" ^ "let cache = ref 0\n"
        ^ "let bump () = Mutex.protect lock (fun () -> cache := !cache + 1)\n"
      );
      ( "lib/worker.ml",
        "let start () = Domain.spawn (fun () -> State.bump ())\n" ) ]
    (fun o ->
      Alcotest.(check (list string))
        "uniformly guarded state is fine" [] (concurrency_codes o))

(* A job submitted to the runtime's pool runs on a worker domain, so
   its closure is a spawn site like Domain.spawn's. *)
let test_deep_c001_pool_job () =
  deep_run
    [ List.hd (c001_state "");
      ("lib/worker.ml", "let start w = Pool.submit w (fun () -> State.bump ())\n") ]
    (fun o ->
      Alcotest.(check (list string)) "flagged" [ "C001" ] (concurrency_codes o);
      let f = List.find (fun f -> f.Finding.code = "C001") o.Driver.findings in
      Alcotest.(check bool) "names the pool job" true
        (contains f.Finding.message "Pool.submit closure at lib/worker.ml:1"))

(* C002: a three-module lock-order cycle, visible only interprocedurally
   (each unit acquires its own mutex and calls the next). *)
let lock_cycle =
  [ ( "lib/alpha.ml",
      "let m = Mutex.create ()\n"
      ^ "let grab () = Mutex.protect m (fun () -> Beta.grab ())\n" );
    ( "lib/beta.ml",
      "let m = Mutex.create ()\n"
      ^ "let grab () = Mutex.protect m (fun () -> Gamma.grab ())\n" );
    ( "lib/gamma.ml",
      "let m = Mutex.create ()\n"
      ^ "let grab () = Mutex.protect m (fun () -> Alpha.grab ())\n" ) ]

let test_deep_c002_cycle () =
  deep_run lock_cycle (fun o ->
      Alcotest.(check (list string)) "one cycle finding" [ "C002" ]
        (concurrency_codes o);
      let r = report_of o in
      Alcotest.(check int) "one SCC" 1 (List.length r.Concurrency.r_cycles);
      Alcotest.(check int)
        "three mutexes in it" 3
        (List.length (List.hd r.Concurrency.r_cycles)))

let test_deep_c002_clean () =
  (* same shape, but gamma doesn't call back: a DAG, no finding *)
  deep_run
    [ List.nth lock_cycle 0; List.nth lock_cycle 1;
      ( "lib/gamma.ml",
        "let m = Mutex.create ()\n"
        ^ "let grab () = Mutex.protect m (fun () -> ())\n" ) ]
    (fun o ->
      Alcotest.(check (list string)) "no cycle" [] (concurrency_codes o);
      let r = report_of o in
      (* alpha->beta, beta->gamma, plus the transitive alpha->gamma
         edge from the interprocedural Acquires* closure *)
      Alcotest.(check int) "graph has edges" 3
        (List.length r.Concurrency.r_edges);
      Alcotest.(check int) "but no SCC" 0
        (List.length r.Concurrency.r_cycles))

(* C003: guarded writes, one bare read reachable from a spawn. *)
let c003_state decl_suffix =
  [ ( "lib/state.ml",
      "let lock = Mutex.create ()\n" ^ "let cache = ref 0" ^ decl_suffix
      ^ "\n"
      ^ "let bump () = Mutex.protect lock (fun () -> cache := !cache + 1)\n"
      ^ "let peek () = !cache\n" );
    ( "lib/worker.ml",
      "let start () = Domain.spawn (fun () -> State.peek ())\n" ) ]

let test_deep_c003_positive () =
  deep_run (c003_state "") (fun o ->
      Alcotest.(check (list string)) "flagged" [ "C003" ] (concurrency_codes o);
      let f =
        List.find (fun f -> f.Finding.code = "C003") o.Driver.findings
      in
      Alcotest.(check int) "at the bare read, not the guarded write" 4
        f.Finding.line)

let test_deep_c003_suppressed () =
  deep_run
    (c003_state "  (* qnet-lint: racy-ok C003 test fixture *)")
    (fun o ->
      Alcotest.(check (list string)) "no active" [] (concurrency_codes o);
      Alcotest.(check (list string)) "suppressed" [ "C003" ]
        (suppressed_concurrency o))

(* C004: blocking call inside a critical section. *)
let c004_src site_suffix =
  [ ( "lib/slow.ml",
      "let lock = Mutex.create ()\n" ^ "let nap () =\n"
      ^ "  Mutex.protect lock (fun () ->\n" ^ "      Thread.delay 0.1"
      ^ site_suffix ^ ")\n" ) ]

let test_deep_c004_positive () =
  deep_run (c004_src "") (fun o ->
      Alcotest.(check (list string)) "flagged" [ "C004" ] (concurrency_codes o))

let test_deep_c004_suppressed () =
  deep_run
    (c004_src " (* qnet-lint: racy-ok C004 test fixture *)")
    (fun o ->
      Alcotest.(check (list string)) "no active" [] (concurrency_codes o);
      Alcotest.(check (list string)) "suppressed" [ "C004" ]
        (suppressed_concurrency o))

let test_deep_c004_clean () =
  deep_run
    [ ( "lib/slow.ml",
        "let lock = Mutex.create ()\n"
        ^ "let nap () = Mutex.protect lock (fun () -> ()); Thread.delay 0.1\n"
      ) ]
    (fun o ->
      Alcotest.(check (list string))
        "blocking outside the section is fine" [] (concurrency_codes o))

(* C005: Atomic.get then Atomic.set of one target in one function. *)
let c005_src set_suffix =
  [ ( "lib/count.ml",
      "let counter = Atomic.make 0\n" ^ "let bump () =\n"
      ^ "  let v = Atomic.get counter in\n" ^ "  Atomic.set counter (v + 1)"
      ^ set_suffix ^ "\n" ) ]

let test_deep_c005_positive () =
  deep_run (c005_src "") (fun o ->
      Alcotest.(check (list string)) "flagged" [ "C005" ] (concurrency_codes o))

let test_deep_c005_suppressed () =
  deep_run
    (c005_src " (* qnet-lint: racy-ok C005 test fixture *)")
    (fun o ->
      Alcotest.(check (list string)) "no active" [] (concurrency_codes o);
      Alcotest.(check (list string)) "suppressed" [ "C005" ]
        (suppressed_concurrency o))

let test_deep_c005_clean () =
  deep_run
    [ ( "lib/count.ml",
        "let counter = Atomic.make 0\n"
        ^ "let bump () = Atomic.incr counter\n"
        ^ "let spin () = while not (Atomic.compare_and_set counter 0 1) do () \
           done\n" ) ]
    (fun o ->
      Alcotest.(check (list string)) "RMW forms are fine" []
        (concurrency_codes o))

(* S002: the audit of the audit — a racy-ok that suppresses nothing. *)
let test_deep_s002_orphan () =
  deep_run
    [ ("lib/tidy.ml", "let x = 1 (* qnet-lint: racy-ok C001 nothing here *)\n")
    ]
    (fun o ->
      Alcotest.(check (list string)) "orphan flagged" [ "S002" ]
        (concurrency_codes o);
      let f =
        List.find (fun f -> f.Finding.code = "S002") o.Driver.findings
      in
      Alcotest.(check int) "at the directive" 1 f.Finding.line)

let test_deep_s002_not_in_shallow_runs () =
  with_temp_tree
    [ ("lib/tidy.ml", "let x = 1 (* qnet-lint: racy-ok C001 nothing here *)\n")
    ]
    (fun root ->
      let o = Driver.run (Driver.default_options root) in
      Alcotest.(check bool)
        "shallow runs cannot judge orphanhood" false
        (List.mem "S002" (codes o.Driver.findings)))

(* --------------------------------------------------------------- *)
(* Reporters                                                        *)

let outcome_of findings =
  {
    Driver.findings;
    suppressed = [];
    baselined = [];
    files_scanned = List.length findings;
    deep = None;
  }

let test_reporter_text () =
  let o =
    outcome_of
      [ Finding.v ~code:"D001" ~file:"lib/x.ml" ~line:7 ~col:3 "boom" ]
  in
  let text = Reporter.text o in
  Alcotest.(check bool)
    "compiler-style prefix" true
    (contains text "lib/x.ml:7:3: error D001: boom");
  Alcotest.(check bool)
    "summary counts findings" true
    (contains text "1 finding(s)")

let test_reporter_json () =
  let o =
    outcome_of
      [ Finding.v ~code:"F001" ~file:"lib/x.ml" ~line:2 ~col:0 "msg" ]
  in
  match Jsonx.parse_object (Reporter.json o) with
  | Error m -> Alcotest.fail ("reporter JSON does not parse: " ^ m)
  | Ok fields -> (
      (match List.assoc_opt "ok" fields with
      | Some (Jsonx.Bool b) -> Alcotest.(check bool) "ok is false" false b
      | _ -> Alcotest.fail "missing ok field");
      match List.assoc_opt "findings" fields with
      | Some (Jsonx.Arr [ Jsonx.Obj f ]) ->
          Alcotest.(check bool)
            "code serialized" true
            (List.assoc_opt "code" f = Some (Jsonx.Str "F001"))
      | _ -> Alcotest.fail "findings array malformed")

let test_rule_catalogue () =
  let codes = List.map (fun (c, _, _) -> c) Rules.catalogue in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " catalogued") true (List.mem c codes))
    [ "D001"; "D002"; "E001"; "E002"; "P001"; "O001"; "F001"; "M001"; "X001";
      "S001"; "S002"; "C001"; "C002"; "C003"; "C004"; "C005" ]

(* --------------------------------------------------------------- *)
(* Whole-repo smoke test                                            *)

let find_repo_root () =
  let rec go dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
      && Sys.file_exists (Filename.concat dir "bin")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent (depth + 1)
  in
  go (Sys.getcwd ()) 0

let test_repo_is_clean () =
  match find_repo_root () with
  | None -> Alcotest.fail "could not locate the repo root from the test cwd"
  | Some root ->
      let o = Driver.run (Driver.default_options root) in
      Alcotest.(check bool)
        "scanned a real tree" true
        (o.Driver.files_scanned > 50);
      if o.Driver.findings <> [] then
        Alcotest.failf "repo has unsuppressed lint findings:\n%s"
          (Reporter.text o)

(* The committed guarantee that the runtime's lock-order graph is
   acyclic, and that --deep over the real tree is finding-free (every
   racy-by-design cell carries an audited racy-ok). *)
let test_repo_deep_clean () =
  match find_repo_root () with
  | None -> Alcotest.fail "could not locate the repo root from the test cwd"
  | Some root ->
      let o =
        Driver.run { (Driver.default_options root) with Driver.deep = true }
      in
      if o.Driver.findings <> [] then
        Alcotest.failf "repo has unsuppressed deep findings:\n%s"
          (Reporter.text o);
      let r = report_of o in
      let s = r.Concurrency.r_stats in
      Alcotest.(check bool)
        "indexed a real tree" true
        (s.Concurrency.st_units > 50 && s.Concurrency.st_active > 5);
      Alcotest.(check bool)
        "found the runtime's mutexes and spawns" true
        (s.Concurrency.st_mutexes > 0 && s.Concurrency.st_spawns > 0);
      (match r.Concurrency.r_cycles with
      | [] -> ()
      | cyc :: _ ->
          Alcotest.failf "lock-order graph has a cycle: %s"
            (String.concat " -> " cyc));
      Alcotest.(check bool)
        "lock graph is non-trivial" true
        (List.length r.Concurrency.r_edges > 0)

let () =
  Alcotest.run "lint"
    [
      ( "d001",
        [
          Alcotest.test_case "positive" `Quick test_d001_positive;
          Alcotest.test_case "negative" `Quick test_d001_negative;
        ] );
      ( "d002",
        [
          Alcotest.test_case "positive" `Quick test_d002_positive;
          Alcotest.test_case "negative" `Quick test_d002_negative;
        ] );
      ( "e001",
        [
          Alcotest.test_case "positive" `Quick test_e001_positive;
          Alcotest.test_case "negative" `Quick test_e001_negative;
        ] );
      ( "e002",
        [
          Alcotest.test_case "positive" `Quick test_e002_positive;
          Alcotest.test_case "negative" `Quick test_e002_negative;
        ] );
      ( "p001",
        [
          Alcotest.test_case "positive" `Quick test_p001_positive;
          Alcotest.test_case "negative" `Quick test_p001_negative;
        ] );
      ( "o001-f001",
        [
          Alcotest.test_case "o001" `Quick test_o001;
          Alcotest.test_case "f001 positive" `Quick test_f001_positive;
          Alcotest.test_case "f001 negative" `Quick test_f001_negative;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "trailing" `Quick test_suppression_trailing;
          Alcotest.test_case "standalone" `Quick test_suppression_standalone;
          Alcotest.test_case "wrong code" `Quick test_suppression_wrong_code;
          Alcotest.test_case "needs reason" `Quick test_suppression_needs_reason;
          Alcotest.test_case "string literal" `Quick
            test_suppression_in_string_ignored;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "m001" `Quick test_driver_m001;
          Alcotest.test_case "baseline" `Quick test_driver_baseline;
          Alcotest.test_case "baseline round-trip" `Quick
            test_baseline_round_trip;
          Alcotest.test_case "baseline deterministic" `Quick
            test_baseline_deterministic;
          Alcotest.test_case "baseline normalized covers" `Quick
            test_baseline_normalized_covers;
          Alcotest.test_case "baseline regenerate idempotent" `Quick
            test_baseline_regenerate_idempotent;
        ] );
      ( "deep",
        [
          Alcotest.test_case "c001 positive" `Quick test_deep_c001_positive;
          Alcotest.test_case "c001 suppressed" `Quick test_deep_c001_suppressed;
          Alcotest.test_case "c001 clean" `Quick test_deep_c001_clean;
          Alcotest.test_case "c001 pool job" `Quick test_deep_c001_pool_job;
          Alcotest.test_case "c002 cycle" `Quick test_deep_c002_cycle;
          Alcotest.test_case "c002 clean" `Quick test_deep_c002_clean;
          Alcotest.test_case "c003 positive" `Quick test_deep_c003_positive;
          Alcotest.test_case "c003 suppressed" `Quick test_deep_c003_suppressed;
          Alcotest.test_case "c004 positive" `Quick test_deep_c004_positive;
          Alcotest.test_case "c004 suppressed" `Quick test_deep_c004_suppressed;
          Alcotest.test_case "c004 clean" `Quick test_deep_c004_clean;
          Alcotest.test_case "c005 positive" `Quick test_deep_c005_positive;
          Alcotest.test_case "c005 suppressed" `Quick test_deep_c005_suppressed;
          Alcotest.test_case "c005 clean" `Quick test_deep_c005_clean;
          Alcotest.test_case "s002 orphan" `Quick test_deep_s002_orphan;
          Alcotest.test_case "s002 deep-only" `Quick
            test_deep_s002_not_in_shallow_runs;
        ] );
      ( "report",
        [
          Alcotest.test_case "text" `Quick test_reporter_text;
          Alcotest.test_case "json" `Quick test_reporter_json;
          Alcotest.test_case "catalogue" `Quick test_rule_catalogue;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "repo is lint-clean" `Quick test_repo_is_clean;
          Alcotest.test_case "repo is deep-clean, lock graph acyclic" `Quick
            test_repo_deep_clean;
        ] );
    ]
