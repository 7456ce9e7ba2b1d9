(* Clocks, order statistics, process memory and a few JSON scraps
   shared by the workloads. *)

(* What one run reports: the correctness verdict, operations attempted
   and failed, and (name, value, unit) metrics. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it. *)
let quantile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) k))

let max_of xs = List.fold_left Float.max neg_infinity xs

let mean xs =
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Stdlib.max 1 (Array.length xs))

(* Bytes allocated by this domain so far, as [Gc.counters] sees them. *)
let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Peak resident set (VmHWM) of a process, in MB; [nan] when /proc is
   unavailable. *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              match
                String.sub line 6 (String.length line - 6)
                |> String.map (fun c -> if c = '\t' then ' ' else c)
                |> String.split_on_char ' '
                |> List.filter (fun s -> s <> "")
              with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some v -> v /. 1024.0
                  | None -> nan)
              | [] -> nan
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Offset just past the first occurrence of [pat] at or after [from]. *)
let find_after ?(from = 0) text pat =
  let n = String.length text and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = pat then Some (i + m)
    else go (i + 1)
  in
  go from

(* The number following ["key":] at or after [from] in a JSON text the
   daemon rendered itself; [None] when absent or [null]. Enough for
   the flat fields read here without a general JSON parser. *)
let json_number ?(from = 0) text key =
  match find_after ~from text ("\"" ^ key ^ "\":") with
  | None -> None
  | Some j ->
      let n = String.length text in
      let k = ref j in
      while
        !k < n
        && match text.[!k] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr k
      done;
      float_of_string_opt (String.sub text j (!k - j))

let json_bool text key =
  match find_after text ("\"" ^ key ^ "\":") with
  | Some j when j + 4 <= String.length text && String.sub text j 4 = "true" ->
      Some true
  | Some j when j + 5 <= String.length text && String.sub text j 5 = "false" ->
      Some false
  | _ -> None
