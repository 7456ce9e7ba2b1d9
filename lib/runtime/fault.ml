module Rng = Qnet_prob.Rng

type mode = Duplicate | Truncate | Nan_field | Clock_skew | Reversed | Reorder

(* Reorder comes last, so it scrambles the corrupted lines too. *)
let all_modes = [ Duplicate; Truncate; Nan_field; Clock_skew; Reversed; Reorder ]

let mode_label = function
  | Duplicate -> "duplicate"
  | Truncate -> "truncate"
  | Nan_field -> "nan-field"
  | Clock_skew -> "clock-skew"
  | Reversed -> "reversed"
  | Reorder -> "reorder"

type fields = {
  task : string;
  state : string;
  queue : string;
  arrival : float;
  departure : float;
}

let parse_fields line =
  match String.split_on_char ',' line with
  | [ task; state; queue; arrival; departure ] -> (
      match (float_of_string_opt arrival, float_of_string_opt departure) with
      | Some a, Some d when Float.is_finite a && Float.is_finite d ->
          Some { task; state; queue; arrival = a; departure = d }
      | _ -> None)
  | _ -> None

let unparse f =
  Printf.sprintf "%s,%s,%s,%.17g,%.17g" f.task f.state f.queue f.arrival f.departure

let inject ?per_mode rng csv =
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> String.trim l <> "")
  in
  let header, data =
    match lines with
    | h :: rest when String.length h >= 4 && String.sub h 0 4 = "task" -> (Some h, rest)
    | rest -> (None, rest)
  in
  let data = ref (Array.of_list data) in
  let n0 = Array.length !data in
  let per_mode = match per_mode with Some k -> k | None -> Stdlib.max 1 (n0 / 25) in
  let applied = ref [] in
  (* Pick a random data line satisfying [eligible]; a bounded number of
     draws keeps injection total even when few lines qualify. *)
  let pick eligible =
    let a = !data in
    let n = Array.length a in
    if n = 0 then None
    else begin
      let rec try_ attempts =
        if attempts = 0 then None
        else
          let i = Rng.int rng n in
          match parse_fields a.(i) with
          | Some f when eligible f -> Some (i, f)
          | _ -> try_ (attempts - 1)
      in
      try_ (4 * n)
    end
  in
  let apply mode =
    let count = ref 0 in
    (match mode with
    | Reorder ->
        Rng.shuffle_in_place rng !data;
        count := Array.length !data
    | Duplicate ->
        for _ = 1 to per_mode do
          match pick (fun _ -> true) with
          | Some (i, _) ->
              let a = !data in
              data :=
                Array.concat
                  [ Array.sub a 0 (i + 1); [| a.(i) |];
                    Array.sub a (i + 1) (Array.length a - i - 1) ];
              incr count
          | None -> ()
        done
    | Truncate ->
        for _ = 1 to per_mode do
          match pick (fun _ -> true) with
          | Some (i, _) ->
              let line = !data.(i) in
              (* cut at a comma so the line loses whole fields *)
              let commas =
                String.fold_left
                  (fun (j, acc) c -> (j + 1, if c = ',' then j :: acc else acc))
                  (0, []) line
                |> snd
              in
              (match commas with
              | [] -> ()
              | cs ->
                  let cut = List.nth cs (Rng.int rng (List.length cs)) in
                  !data.(i) <- String.sub line 0 cut;
                  incr count)
          | None -> ()
        done
    | Nan_field ->
        for _ = 1 to per_mode do
          match pick (fun _ -> true) with
          | Some (i, f) ->
              !data.(i) <- Printf.sprintf "%s,%s,%s,%.17g,nan" f.task f.state f.queue f.arrival;
              incr count
          | None -> ()
        done
    | Clock_skew ->
        for _ = 1 to per_mode do
          (* only non-initial events: skewing an arrival of 0 would
             read as a missing initial event, a different mode *)
          match pick (fun f -> f.arrival > 0.0) with
          | Some (i, f) ->
              let skew = 0.1 +. Rng.float_unit rng in
              !data.(i) <- unparse { f with arrival = f.arrival +. skew; departure = f.departure +. skew };
              incr count
          | None -> ()
        done
    | Reversed ->
        for _ = 1 to per_mode do
          match pick (fun f -> f.departure > f.arrival && f.arrival > 0.0) with
          | Some (i, f) ->
              !data.(i) <- unparse { f with arrival = f.departure; departure = f.arrival };
              incr count
          | None -> ()
        done);
    applied := (mode, !count) :: !applied
  in
  List.iter apply all_modes;
  let buf = Buffer.create (String.length csv + 256) in
  (match header with
  | Some h ->
      Buffer.add_string buf h;
      Buffer.add_char buf '\n'
  | None -> ());
  Array.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    !data;
  (Buffer.contents buf, List.rev !applied)

(* --- chain-level fault injection ---------------------------------- *)

module Store = Qnet_core.Event_store

type chain_fault_kind =
  | Chain_stall of float
  | Chain_crash
  | Chain_corrupt_latent

type chain_fault = { chain : int; at_iteration : int; kind : chain_fault_kind }

exception Injected_crash of { chain : int; iteration : int }

let () =
  Printexc.register_printer (function
    | Injected_crash { chain; iteration } ->
        Some
          (Printf.sprintf "Fault.Injected_crash(chain %d, iteration %d)" chain
             iteration)
    | _ -> None)

let corrupt_one_latent store =
  let u = Store.unobserved_events store in
  if Array.length u = 0 then false
  else begin
    (* Event_store.set_departure refuses NaN by design, so corrupt the
       state the way real memory corruption would: through a snapshot,
       which asks no one's permission. *)
    let s = Store.snapshot store in
    s.Store.s_departure.(u.(Array.length u / 2)) <- nan;
    Store.restore store s;
    true
  end

(* --- service-level fault injection -------------------------------- *)

type service_fault_kind =
  | Ingest_stall of float
  | Shard_crash
  | Checkpoint_write_failure
  | Slow_consumer of float
  | Torn_write
  | Bit_flip
  | Overload of float

type service_fault = {
  shard : int;
  after : float;
  kind : service_fault_kind;
}

exception Injected_shard_crash of { shard : int }

let () =
  Printexc.register_printer (function
    | Injected_shard_crash { shard } ->
        Some (Printf.sprintf "Fault.Injected_shard_crash(shard %d)" shard)
    | _ -> None)

let service_fault_label f =
  let kind =
    match f.kind with
    | Ingest_stall s -> Printf.sprintf "ingest-stall(%.3gs)" s
    | Shard_crash -> "crash"
    | Checkpoint_write_failure -> "ckpt-fail"
    | Slow_consumer s -> Printf.sprintf "slow(%.3gs)" s
    | Torn_write -> "torn-write"
    | Bit_flip -> "bit-flip"
    | Overload rps -> Printf.sprintf "overload(%.3g/s)" rps
  in
  Printf.sprintf "shard %d: %s @ t+%.3gs" f.shard kind f.after

let parse_service_fault spec =
  (* SHARD:KIND[=ARG]@SECONDS, e.g. "0:ingest-stall=1.5@4", "1:crash@6",
     "0:ckpt-fail@8", "1:slow=2@3", "0:torn-write@6", "0:bit-flip@8",
     "1:overload=50@3" *)
  let fail () =
    Error
      (Printf.sprintf
         "bad service-fault spec %S (want SHARD:KIND[=ARG]@SECONDS with KIND \
          one of ingest-stall, crash, ckpt-fail, slow, torn-write, bit-flip, \
          overload=RPS)"
         spec)
  in
  match String.index_opt spec ':' with
  | None -> fail ()
  | Some colon -> (
      let shard_s = String.sub spec 0 colon in
      let rest = String.sub spec (colon + 1) (String.length spec - colon - 1) in
      match String.index_opt rest '@' with
      | None -> fail ()
      | Some at -> (
          let kind_s = String.sub rest 0 at in
          let after_s = String.sub rest (at + 1) (String.length rest - at - 1) in
          let kind_s, arg =
            match String.index_opt kind_s '=' with
            | None -> (kind_s, None)
            | Some eq ->
                ( String.sub kind_s 0 eq,
                  float_of_string_opt
                    (String.sub kind_s (eq + 1) (String.length kind_s - eq - 1)) )
          in
          match (int_of_string_opt shard_s, float_of_string_opt after_s) with
          | Some shard, Some after
            when shard >= 0 && after >= 0.0 && Float.is_finite after -> (
              let pos = function
                | Some s when s > 0.0 && Float.is_finite s -> Some s
                | _ -> None
              in
              match (kind_s, arg) with
              | "ingest-stall", None ->
                  Ok { shard; after; kind = Ingest_stall 1.0 }
              | "ingest-stall", a -> (
                  match pos a with
                  | Some s -> Ok { shard; after; kind = Ingest_stall s }
                  | None -> fail ())
              | "crash", None -> Ok { shard; after; kind = Shard_crash }
              | "ckpt-fail", None ->
                  Ok { shard; after; kind = Checkpoint_write_failure }
              | "slow", None -> Ok { shard; after; kind = Slow_consumer 2.0 }
              | "slow", a -> (
                  match pos a with
                  | Some s -> Ok { shard; after; kind = Slow_consumer s }
                  | None -> fail ())
              | "torn-write", None -> Ok { shard; after; kind = Torn_write }
              | "bit-flip", None -> Ok { shard; after; kind = Bit_flip }
              | "overload", a -> (
                  match pos a with
                  | Some rps -> Ok { shard; after; kind = Overload rps }
                  | None -> fail ())
              | _ -> fail ())
          | _ -> fail ()))

let parse_chain_fault spec =
  (* CHAIN:KIND[=ARG]@ITERATION, e.g. "1:stall@5", "2:crash@8",
     "0:stall=0.4@3", "3:corrupt@6" *)
  let fail () =
    Error
      (Printf.sprintf
         "bad chain-fault spec %S (want CHAIN:KIND[=ARG]@ITER with KIND one of \
          stall, crash, corrupt)"
         spec)
  in
  match String.index_opt spec ':' with
  | None -> fail ()
  | Some colon -> (
      let chain_s = String.sub spec 0 colon in
      let rest = String.sub spec (colon + 1) (String.length spec - colon - 1) in
      match String.index_opt rest '@' with
      | None -> fail ()
      | Some at -> (
          let kind_s = String.sub rest 0 at in
          let iter_s = String.sub rest (at + 1) (String.length rest - at - 1) in
          let kind_s, arg =
            match String.index_opt kind_s '=' with
            | None -> (kind_s, None)
            | Some eq ->
                ( String.sub kind_s 0 eq,
                  float_of_string_opt
                    (String.sub kind_s (eq + 1) (String.length kind_s - eq - 1)) )
          in
          match (int_of_string_opt chain_s, int_of_string_opt iter_s) with
          | Some chain, Some at_iteration when chain >= 0 && at_iteration >= 0 -> (
              match (kind_s, arg) with
              | "stall", None -> Ok { chain; at_iteration; kind = Chain_stall 0.25 }
              | "stall", Some s when s > 0.0 && Float.is_finite s ->
                  Ok { chain; at_iteration; kind = Chain_stall s }
              | "crash", None -> Ok { chain; at_iteration; kind = Chain_crash }
              | "corrupt", None ->
                  Ok { chain; at_iteration; kind = Chain_corrupt_latent }
              | _ -> fail ())
          | _ -> fail ()))
