type event = {
  task : int;
  state : int;
  queue : int;
  arrival : float;
  departure : float;
}

type t = { num_queues : int; num_tasks : int; events : event array }

let chain_tolerance = 1e-9

let compare_task_arrival a b =
  (* ties on arrival (e.g. a task entering at exactly time 0, whose
     initial event departs at 0 too) resolve by departure so the chain
     order is preserved *)
  match compare a.task b.task with
  | 0 -> (
      match compare a.arrival b.arrival with
      | 0 -> compare a.departure b.departure
      | c -> c)
  | c -> c

(* [create]'s checks, made in one walk of the events in index order, or
   inside the parse loop as each record is read. The walk notes whether
   the events are strictly increasing, the first event that fails a
   per-event check, the first task start without an initial event or
   broken link of a chain, and the run count. The first per-event error
   anywhere wins over any chain error, as when the checks were walks of
   their own. *)
type checks = {
  mutable ordered : bool;
  mutable bad_event : int;  (** -1 when none *)
  mutable bad_chain : int;  (** -1 when none *)
  mutable tasks : int;
}

let new_checks () = { ordered = true; bad_event = -1; bad_chain = -1; tasks = 0 }

(* [compare_task_arrival p e < 0] without a call when no time is NaN: on
   other floats the comparisons below order as [compare] does, -0 and 0
   alike included, and a NaN makes them all false. *)
let[@inline] before p e =
  p.task < e.task
  || p.task = e.task
     && (p.arrival < e.arrival || (p.arrival = e.arrival && p.departure < e.departure))
  || compare_task_arrival p e < 0

let[@inline] bad_event ~num_queues e =
  e.queue < 0 || e.queue >= num_queues
  || e.arrival <> e.arrival || e.departure <> e.departure
  || e.arrival < 0.0
  || e.departure < e.arrival -. chain_tolerance

(* Records event [i] in [c]; events [0] to [i - 1] were recorded before. *)
let check_event c ~num_queues events i =
  let e = Array.unsafe_get events i in
  if c.bad_event < 0 && bad_event ~num_queues e then c.bad_event <- i;
  if i = 0 then begin
    c.tasks <- 1;
    if not (Float.equal e.arrival 0.0) then c.bad_chain <- 0
  end
  else begin
    let p = Array.unsafe_get events (i - 1) in
    if p.task <> e.task then begin
      c.tasks <- c.tasks + 1;
      if c.bad_chain < 0 && not (Float.equal e.arrival 0.0) then c.bad_chain <- i
    end
    else if c.bad_chain < 0 && Float.abs (e.arrival -. p.departure) > chain_tolerance then
      c.bad_chain <- i;
    if c.ordered && not (before p e) then c.ordered <- false
  end

let walk c ~num_queues events =
  for i = 0 to Array.length events - 1 do
    check_event c ~num_queues events i
  done

(* The trace, once [c] holds every event of [events]. [to_csv] and the
   simulator write events in strictly increasing order, and a strictly
   increasing array is the only order any sort can give it; a tie or an
   inversion still goes through [Array.sort], which then sees exactly
   the array it always saw, so ties keep their order, and the checks
   walk the sorted array again. *)
let finish c ~num_queues events =
  let c =
    if c.ordered then c
    else begin
      Array.sort compare_task_arrival events;
      let c = new_checks () in
      walk c ~num_queues events;
      c
    end
  in
  if c.bad_event >= 0 then begin
    let e = events.(c.bad_event) in
    if e.queue < 0 || e.queue >= num_queues then
      invalid_arg
        (Printf.sprintf "Trace.create: queue %d out of range [0,%d)" e.queue num_queues);
    if Float.is_nan e.arrival || Float.is_nan e.departure then
      invalid_arg "Trace.create: NaN time";
    if e.arrival < 0.0 then invalid_arg "Trace.create: negative arrival time";
    invalid_arg
      (Printf.sprintf "Trace.create: departure %.12g before arrival %.12g (task %d)"
         e.departure e.arrival e.task)
  end;
  if c.bad_chain >= 0 then begin
    let i = c.bad_chain in
    let cur = events.(i) in
    if i = 0 || events.(i - 1).task <> cur.task then
      invalid_arg
        (Printf.sprintf "Trace.create: task %d has no initial event at time 0" cur.task);
    invalid_arg
      (Printf.sprintf
         "Trace.create: task %d broken chain: arrival %.12g <> previous departure %.12g"
         cur.task cur.arrival events.(i - 1).departure)
  end;
  { num_queues; num_tasks = c.tasks; events }

(* [create] on an array it may reorder in place. *)
let of_array ~num_queues events =
  let c = new_checks () in
  walk c ~num_queues events;
  finish c ~num_queues events

let create ~num_queues events = of_array ~num_queues (Array.of_list events)

let tasks t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun e ->
      if not (Hashtbl.mem seen e.task) then begin
        Hashtbl.add seen e.task ();
        acc := e.task :: !acc
      end)
    t.events;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let events_of_task t task =
  let es = Array.of_list (List.filter (fun e -> e.task = task) (Array.to_list t.events)) in
  Array.sort (fun a b -> compare a.arrival b.arrival) es;
  es

let queue_events t q =
  let es = Array.of_list (List.filter (fun e -> e.queue = q) (Array.to_list t.events)) in
  (* FIFO order: by arrival, ties (notably the all-zero arrivals at q0)
     by departure, then task for determinism. *)
  Array.sort
    (fun a b ->
      match compare a.arrival b.arrival with
      | 0 -> (
          match compare a.departure b.departure with
          | 0 -> compare a.task b.task
          | c -> c)
      | c -> c)
    es;
  es

let service_and_waiting t q =
  let es = queue_events t q in
  let n = Array.length es in
  let service = Array.make n 0.0 and waiting = Array.make n 0.0 in
  let last_departure = ref neg_infinity in
  for i = 0 to n - 1 do
    let e = es.(i) in
    let start = Float.max e.arrival !last_departure in
    service.(i) <- e.departure -. start;
    waiting.(i) <- start -. e.arrival;
    last_departure := e.departure
  done;
  (service, waiting)

let service_times t q = fst (service_and_waiting t q)
let waiting_times t q = snd (service_and_waiting t q)

let response_times t q =
  Array.map (fun e -> e.departure -. e.arrival) (queue_events t q)

let span t =
  Array.fold_left
    (fun (lo, hi) e -> (Float.min lo e.arrival, Float.max hi e.departure))
    (infinity, neg_infinity) t.events

let utilization t q =
  let busy = Array.fold_left ( +. ) 0.0 (service_times t q) in
  let lo, hi = span t in
  if hi <= lo then 0.0 else busy /. (hi -. lo)

let to_csv t =
  let buf = Buffer.create (Array.length t.events * 64) in
  Buffer.add_string buf "task,state,queue,arrival,departure\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.task e.state e.queue e.arrival
           e.departure))
    t.events;
  Buffer.contents buf

(* The CSV scanner both parsers share. One loop per line finds its end
   and its commas; the fields are then read in place. A line is the text
   between two newlines, as [String.split_on_char '\n'] cuts it, and its
   ends are trimmed of the blanks [String.trim] removes. *)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

type line = {
  mutable first : int;  (** first non-blank byte; [first = last] on a blank line *)
  mutable last : int;  (** one past the last non-blank byte *)
  mutable commas : int;
  lo : int array;  (** with 4 commas, field [k] is bytes [lo.(k)] to [hi.(k) - 1] *)
  hi : int array;
  mutable prev : event;  (** the last record read *)
  mutable prev_lo : int;  (** its departure field is bytes [prev_lo] to [prev_hi - 1]; *)
  mutable prev_hi : int;  (** [prev_hi < prev_lo] before the first record *)
  mutable comma : int;  (** the comma after the reader's last run of digits *)
}

let placeholder = { task = 0; state = 0; queue = 0; arrival = 0.0; departure = 0.0 }

let new_line () =
  {
    first = 0;
    last = 0;
    commas = 0;
    lo = Array.make 5 0;
    hi = Array.make 5 0;
    prev = placeholder;
    prev_lo = 0;
    prev_hi = -1;
    comma = 0;
  }

(* Scans the line that starts at [pos] into [l] and returns its end: the
   index of its newline, or the text's length. *)
let scan_line text pos l =
  let len = String.length text in
  let stop = ref pos and commas = ref 0 in
  while !stop < len && String.unsafe_get text !stop <> '\n' do
    if String.unsafe_get text !stop = ',' then begin
      if !commas < 4 then begin
        l.hi.(!commas) <- !stop;
        l.lo.(!commas + 1) <- !stop + 1
      end;
      incr commas
    end;
    incr stop
  done;
  let first = ref pos and last = ref !stop in
  while !first < !last && is_blank (String.unsafe_get text !first) do incr first done;
  while !last > !first && is_blank (String.unsafe_get text (!last - 1)) do decr last done;
  l.first <- !first;
  l.last <- !last;
  l.commas <- !commas;
  l.lo.(0) <- !first;
  l.hi.(4) <- !last;
  !stop

(* Trims each of the 5 fields of a scanned line on its own. *)
let trim_fields text l =
  for k = 0 to 4 do
    while l.lo.(k) < l.hi.(k) && is_blank (String.unsafe_get text l.lo.(k)) do
      l.lo.(k) <- l.lo.(k) + 1
    done;
    while l.hi.(k) > l.lo.(k) && is_blank (String.unsafe_get text (l.hi.(k) - 1)) do
      l.hi.(k) <- l.hi.(k) - 1
    done
  done

(* Whether the bytes from [i] to [j - 1] begin with "task". *)
let starts_with_task text i j =
  j - i >= 4
  && String.unsafe_get text i = 't'
  && String.unsafe_get text (i + 1) = 'a'
  && String.unsafe_get text (i + 2) = 's'
  && String.unsafe_get text (i + 3) = 'k'

(* An int field: an optional '-' and 1 to 18 digits are read in place,
   where no overflow is possible. Anything else ('+', '_', a 0x, 0o, 0b
   or 0u prefix, 19 digits or more, blanks, nothing) goes to
   [int_of_string], so both accept the same fields with the same values.
   Raises [Failure] on a field [int_of_string] rejects. *)
let int_field text i j =
  let d = if i < j && String.unsafe_get text i = '-' then i + 1 else i in
  let k = ref d and acc = ref 0 in
  if j - d >= 1 && j - d <= 18 then
    while !k < j && String.unsafe_get text !k >= '0' && String.unsafe_get text !k <= '9' do
      acc := (10 * !acc) + Char.code (String.unsafe_get text !k) - Char.code '0';
      incr k
    done;
  if !k < j || j = d then int_of_string (String.sub text i (j - i))
  else if d > i then - !acc
  else !acc

(* A float field, read in place as [float_of_string] reads its
   substring. Raises [Failure] on a field [float_of_string] rejects. *)
let float_field = Decimal.float_of_substring

(* Whether the bytes from [i] to [j - 1] are those from [i'] to [j' - 1]. *)
let same_bytes text i j i' j' =
  j - i = j' - i'
  &&
  let k = ref 0 in
  while !k < j - i && String.unsafe_get text (i + !k) = String.unsafe_get text (i' + !k) do
    incr k
  done;
  !k = j - i

(* The record on a line with 4 commas. A chained event's arrival is its
   predecessor's departure, and [to_csv] writes both alike, so an
   arrival field with the bytes of the previous record's departure field
   takes that departure, float box and all, without a parse. Raises
   [Failure] on a field the conversions reject. *)
let read_event text l =
  let lo = l.lo and hi = l.hi in
  let task = int_field text lo.(0) hi.(0) in
  let state = int_field text lo.(1) hi.(1) in
  let queue = int_field text lo.(2) hi.(2) in
  let arrival =
    if same_bytes text lo.(3) hi.(3) l.prev_lo l.prev_hi then l.prev.departure
    else float_field text lo.(3) hi.(3)
  in
  let departure = float_field text lo.(4) hi.(4) in
  let e = { task; state; queue; arrival; departure } in
  l.prev <- e;
  l.prev_lo <- lo.(4);
  l.prev_hi <- hi.(4);
  e

(* The native-endian 8 bytes at [i]; a count of zero bytes does not
   depend on their order. A primitive, so no [int64] is boxed. *)
external get_int64 : string -> int -> int64 = "%caml_string_get64"

(* Newlines a word at a time. In [x = w lxor 0x0a0a...], a byte is zero
   exactly where [w] holds a newline. Adding 0x7f to each byte's low
   seven bits carries into its high bit unless they are all zero, and no
   byte carries into the next, so the high bit of
   [((x land 0x7f...) + 0x7f...) lor x] is clear in each zero byte of [x]
   and only there. *)
let count_newlines text lo hi =
  if lo < 0 || hi < lo || hi > String.length text then invalid_arg "Trace.count_newlines";
  let n = ref 0 and i = ref lo in
  while !i + 8 <= hi do
    let x = Int64.logxor (get_int64 text !i) 0x0a0a0a0a0a0a0a0aL in
    let low = 0x7f7f7f7f7f7f7f7fL in
    let nonzero = Int64.logor (Int64.add (Int64.logand x low) low) x in
    let zero = Int64.shift_right_logical (Int64.logand (Int64.lognot nonzero) 0x8080808080808080L) 7 in
    (* one bit per zero byte, at the bottom of each byte: their sum
       collects in the top byte *)
    n := !n + Int64.to_int (Int64.shift_right_logical (Int64.mul zero 0x0101010101010101L) 56);
    i := !i + 8
  done;
  for k = !i to hi - 1 do
    if String.unsafe_get text k = '\n' then incr n
  done;
  !n

(* The fast path of both parsers, for a line as [to_csv] writes it:
   three runs of 1 to 18 digits, two float fields of bytes above ' ',
   four commas and nothing else, up to a newline or the end of the
   text. Blanks other than a newline may stand before and after it, so
   a CRLF file takes this path too. The ints are read and the arrival's
   bytes compared with the previous departure's as the bytes are
   scanned; the floats go to [Decimal.float_of_substring]. On such a
   line [scan_line] then [read_event] would find these fields, the same
   values and the same [Failure]; with no blank inside a field, lenient
   mode reads it alike. *)

let is_end_blank = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

(* A run of 1 to 18 digits from [p] to a comma: its value, the comma's
   index in [l.comma]. -1 when the bytes from [p] are anything else. *)
let digit_run text p l =
  let len = String.length text in
  let k = ref p and acc = ref 0 in
  while
    !k < len
    &&
    let c = String.unsafe_get text !k in
    c >= '0' && c <= '9'
  do
    acc := (10 * !acc) + Char.code (String.unsafe_get text !k) - 48;
    incr k
  done;
  if !k > p && !k - p <= 18 && !k < len && String.unsafe_get text !k = ',' then begin
    l.comma <- !k;
    !acc
  end
  else -1

(* Reads a canonical line at [pos] into [l.prev], [l.prev_lo] and
   [l.prev_hi] and returns its end (its newline's index, or the text's
   length); returns -1, with those three as they were, on any other
   line. Raises [Failure] on a float field [float_of_string] rejects. *)
let read_canonical text pos l =
  let len = String.length text in
  let p = ref pos in
  while !p < len && is_end_blank (String.unsafe_get text !p) do
    incr p
  done;
  let task = digit_run text !p l in
  let state = if task < 0 then -1 else digit_run text (l.comma + 1) l in
  let queue = if state < 0 then -1 else digit_run text (l.comma + 1) l in
  if queue < 0 then -1
  else begin
    let lo = l.comma + 1 in
    (* the arrival's bytes against those at the same offset from the
       previous departure's start, which lie before [lo] in the text *)
    let shift = l.prev_lo - lo in
    let k = ref lo and diff = ref 0 in
    while
      !k < len
      &&
      let c = String.unsafe_get text !k in
      c > ' ' && c <> ','
    do
      diff :=
        !diff
        lor (Char.code (String.unsafe_get text !k)
            lxor Char.code (String.unsafe_get text (!k + shift)));
      incr k
    done;
    let hi = !k in
    if hi >= len || String.unsafe_get text hi <> ',' then -1
    else begin
      k := hi + 1;
      while
        !k < len
        &&
        let c = String.unsafe_get text !k in
        c > ' ' && c <> ','
      do
        incr k
      done;
      let last = !k in
      while !k < len && is_end_blank (String.unsafe_get text !k) do
        incr k
      done;
      let stop = !k in
      if stop < len && String.unsafe_get text stop <> '\n' then -1
      else begin
        let arrival =
          if !diff = 0 && hi - lo = l.prev_hi - l.prev_lo then l.prev.departure
          else float_field text lo hi
        in
        let departure = float_field text (hi + 1) last in
        l.prev <- { task; state; queue; arrival; departure };
        l.prev_lo <- hi + 1;
        l.prev_hi <- last;
        stop
      end
    end
  end

let of_csv ~num_queues text =
  (* At most one event per line, and none on a header line or on the
     empty piece after a final newline, so a file [to_csv] wrote is read
     into an array of its exact size. *)
  let len = String.length text in
  let first_end = Option.value (String.index_opt text '\n') ~default:len in
  let slots =
    count_newlines text 0 len + 1
    - Bool.to_int (starts_with_task text 0 first_end)
    - Bool.to_int (len > 0 && String.unsafe_get text (len - 1) = '\n')
  in
  let events = Array.make slots placeholder in
  let count = ref 0 and error = ref None in
  let l = new_line () and c = new_checks () in
  let pos = ref 0 and lineno = ref 1 in
  while Option.is_none !error && !pos <= len do
    let stop = match read_canonical text !pos l with s -> s | exception Failure _ -> -1 in
    if stop >= 0 then begin
      events.(!count) <- l.prev;
      check_event c ~num_queues events !count;
      incr count;
      pos := stop + 1
    end
    else begin
      let stop = scan_line text !pos l in
      (* the header test reads the untrimmed line *)
      if l.first = l.last || (!lineno = 1 && starts_with_task text !pos stop) then ()
      else if l.commas <> 4 then
        error := Some (Printf.sprintf "line %d: expected 5 comma-separated fields" !lineno)
      else begin
        match read_event text l with
        | e ->
            events.(!count) <- e;
            check_event c ~num_queues events !count;
            incr count
        | exception Failure _ ->
            (* int_of_string / float_of_string reject with Failure;
               anything else (OOM-class) must propagate *)
            error := Some (Printf.sprintf "line %d: malformed fields" !lineno)
      end;
      pos := stop + 1
    end;
    incr lineno
  done;
  match !error with
  | Some msg -> Error msg
  | None -> (
      let events =
        if !count = Array.length events then events else Array.sub events 0 !count
      in
      try Ok (finish c ~num_queues events) with Invalid_argument msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Lenient ingestion: real-world trace files arrive with truncated
   lines, NaN fields, duplicated records, clock skew and reordering.
   Strict mode ([of_csv]) rejects the whole file; lenient mode
   classifies and skips the corrupt records, keeps every task whose
   event chain survives intact, and reports exactly what was dropped
   and why. *)

type corruption =
  | Malformed_line  (** truncated line / wrong field count / unparseable *)
  | Nan_field
  | Negative_time
  | Out_of_order  (** departure earlier than arrival *)
  | Bad_queue
  | Duplicate_event
  | Broken_chain  (** clock skew: arrival disagrees with predecessor departure *)
  | Missing_initial  (** task has no entry event at time 0 *)
  | Inconsistent_route
      (** task enters at a minority arrival queue, or revisits it *)

let corruption_label = function
  | Malformed_line -> "malformed-line"
  | Nan_field -> "nan-field"
  | Negative_time -> "negative-time"
  | Out_of_order -> "out-of-order"
  | Bad_queue -> "bad-queue"
  | Duplicate_event -> "duplicate-event"
  | Broken_chain -> "broken-chain"
  | Missing_initial -> "missing-initial"
  | Inconsistent_route -> "inconsistent-route"

type line_error = {
  line : int option;  (** 1-based source line; [None] for task-level drops *)
  task_id : int option;
  reason : corruption;
  detail : string;
}

type ingest_report = {
  errors : line_error list;
  lines_read : int;
  events_kept : int;
  events_dropped : int;
  tasks_dropped : int;
}

let pp_ingest_report ppf r =
  Format.fprintf ppf
    "ingest: %d lines read, %d events kept, %d events dropped, %d tasks dropped@."
    r.lines_read r.events_kept r.events_dropped r.tasks_dropped;
  let counts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = corruption_label e.reason in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    r.errors;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Format.fprintf ppf "  %-18s %d@." k v);
  List.iter
    (fun e ->
      Format.fprintf ppf "  [%s]%s%s %s@."
        (corruption_label e.reason)
        (match e.line with Some l -> Printf.sprintf " line %d:" l | None -> "")
        (match e.task_id with Some t -> Printf.sprintf " task %d:" t | None -> "")
        e.detail)
    (List.rev r.errors)

(* The lenient passes, shared by both entry points. [feed candidate
   malformed] hands over a source's records in source order, at most
   [capacity] of them, and returns the number of lines it read:
   [candidate line e] for each record, [malformed line detail] for each
   line that holds none. [line] is the record's 1-based source line, 0
   when it has none.

   The passes work on the surviving records' positions. One sort by
   record and position makes exact duplicates neighbours and each task a
   run in arrival order; the runs are then visited in order of each
   task's first record. No per-task list, table or tuple is built. *)
let lenient ~num_queues ~capacity feed =
  let errors = ref [] in
  let record ?line ?task reason detail =
    errors := { line; task_id = task; reason; detail } :: !errors
  in
  let at line = if line = 0 then None else Some line in
  let candidates = ref 0 in
  (* Pass 1: per-field sanity. [kept] holds the survivors in source
     order, [lines] their source lines. *)
  let kept = Array.make capacity placeholder and lines = Array.make capacity 0 in
  let m = ref 0 in
  let candidate line ({ queue; arrival; departure; _ } as e) =
    incr candidates;
    if Float.is_nan arrival || Float.is_nan departure then
      record ?line:(at line) ~task:e.task Nan_field "NaN arrival or departure"
    else if queue < 0 || queue >= num_queues then
      record ?line:(at line) ~task:e.task Bad_queue
        (Printf.sprintf "queue %d outside [0,%d)" queue num_queues)
    else if arrival < 0.0 || departure < 0.0 then
      record ?line:(at line) ~task:e.task Negative_time
        (Printf.sprintf "negative time (arrival %g, departure %g)" arrival departure)
    else if departure < arrival -. chain_tolerance then
      record ?line:(at line) ~task:e.task Out_of_order
        (Printf.sprintf "departure %g before arrival %g" departure arrival)
    else begin
      kept.(!m) <- e;
      lines.(!m) <- line;
      incr m
    end
  in
  let malformed line detail =
    incr candidates;
    record ~line Malformed_line detail
  in
  let lines_read = feed candidate malformed in
  let m = !m in
  (* The survivors' positions by task, arrival, departure, state, queue
     and position. Times compare as floats, so 0 and -0 are one time. *)
  let by_record i j =
    let a = kept.(i) and b = kept.(j) in
    match Int.compare a.task b.task with
    | 0 -> (
        match Float.compare a.arrival b.arrival with
        | 0 -> (
            match Float.compare a.departure b.departure with
            | 0 -> (
                match Int.compare a.state b.state with
                | 0 -> (match Int.compare a.queue b.queue with 0 -> Int.compare i j | c -> c)
                | c -> c)
            | c -> c)
        | c -> c)
    | c -> c
  in
  let order = Array.init m Fun.id in
  (* Records usually arrive in this order already (every [to_csv] text
     does): one pass over neighbours then replaces the sort. *)
  let k = ref 1 in
  while !k < m && by_record (!k - 1) !k < 0 do
    incr k
  done;
  if !k < m then Array.stable_sort by_record order;
  let same_time a b = Float.equal a.arrival b.arrival && Float.equal a.departure b.departure in
  (* Pass 2: drop exact duplicates, keeping the first occurrence: in
     [order] it leads its copies. Reported in source order. *)
  let dup = Bytes.make m '\000' in
  for k = 1 to m - 1 do
    let a = kept.(order.(k - 1)) and b = kept.(order.(k)) in
    if a.task = b.task && a.state = b.state && a.queue = b.queue && same_time a b then
      Bytes.set dup order.(k) '\001'
  done;
  for i = 0 to m - 1 do
    if Bytes.get dup i <> '\000' then
      record ?line:(at lines.(i)) ~task:kept.(i).task Duplicate_event "exact duplicate record"
  done;
  let len = ref 0 in
  Array.iter
    (fun i ->
      if Bytes.get dup i = '\000' then begin
        order.(!len) <- i;
        incr len
      end)
    order;
  let len = !len in
  (* Records of one task at one arrival and departure go back into
     source order: the chain repair takes ties in the order they came. *)
  let lo = ref 0 in
  while !lo < len do
    let a = kept.(order.(!lo)) in
    let hi = ref (!lo + 1) in
    while
      !hi < len
      &&
      let b = kept.(order.(!hi)) in
      b.task = a.task && same_time a b
    do
      incr hi
    done;
    if !hi - !lo > 1 then begin
      let tie = Array.sub order !lo (!hi - !lo) in
      Array.sort Int.compare tie;
      Array.blit tie 0 order !lo (!hi - !lo)
    end;
    lo := !hi
  done;
  (* Each task is the run [order.(lo .. stop.(lo) - 1)], in arrival
     order; [start.(p)] is the run's [lo] when [p] is the position of
     the task's first record, so a scan of the positions meets the tasks
     in order of first appearance. The repairs below only shorten a run,
     by lowering its [stop]. *)
  let start = Array.make m (-1) and stop = Array.make len 0 in
  let lo = ref 0 in
  while !lo < len do
    let task = kept.(order.(!lo)).task in
    let hi = ref (!lo + 1) and first = ref order.(!lo) in
    while !hi < len && kept.(order.(!hi)).task = task do
      first := Int.min !first order.(!hi);
      incr hi
    done;
    start.(!first) <- !lo;
    stop.(!lo) <- !hi;
    lo := !hi
  done;
  let each_task f =
    for p = 0 to m - 1 do
      let lo = start.(p) in
      if lo >= 0 && stop.(lo) > lo then f lo
    done
  in
  (* Pass 3: per-task chain repair. Keep the longest valid prefix of the
     chain; a clock-skewed or missing record invalidates everything after
     it (the later arrivals can no longer be tied to a departure), not
     the whole task. *)
  let tasks_dropped = ref 0 in
  each_task (fun lo ->
      let first = kept.(order.(lo)) in
      let task = first.task in
      if not (Float.equal first.arrival 0.0) then begin
        record ~task Missing_initial
          (Printf.sprintf "first event arrives at %g, not 0" first.arrival);
        incr tasks_dropped;
        stop.(lo) <- lo
      end
      else begin
        let k = ref (lo + 1) and broken = ref false in
        while (not !broken) && !k < stop.(lo) do
          let prev = kept.(order.(!k - 1)) and e = kept.(order.(!k)) in
          if Float.abs (e.arrival -. prev.departure) > chain_tolerance then begin
            record ~task Broken_chain
              (Printf.sprintf
                 "arrival %g disagrees with predecessor departure %g; dropping the \
                  task's remaining events"
                 e.arrival prev.departure);
            broken := true
          end
          else incr k
        done;
        stop.(lo) <- !k
      end);
  (* Pass 4: route consistency — every surviving task must enter at the
     same (majority) arrival queue and never revisit it, or
     [Event_store.of_trace] would reject the whole trace later. Among
     queues with equally many entries the winner is the first a
     [Hashtbl.fold] visits, over a table of the counts filled in order
     of first entry: an arbitrary rule, but the repair's output depends
     on it, so it is kept. *)
  let entries = Array.make num_queues 0 and entry_queues = ref [] in
  each_task (fun lo ->
      let q = kept.(order.(lo)).queue in
      if entries.(q) = 0 then entry_queues := q :: !entry_queues;
      entries.(q) <- entries.(q) + 1);
  let counts = Hashtbl.create 8 in
  List.iter (fun q -> Hashtbl.replace counts q entries.(q)) (List.rev !entry_queues);
  let arrival_queue =
    Hashtbl.fold
      (fun q c best ->
        match best with
        | Some (_, c') when c' >= c -> best
        | _ -> Some (q, c))
      counts None
  in
  let kept_events = ref 0 in
  Option.iter
    (fun (q0, _) ->
      each_task (fun lo ->
          let entry = kept.(order.(lo)) in
          let task = entry.task in
          if entry.queue <> q0 then begin
            record ~task Inconsistent_route
              (Printf.sprintf "task enters at queue %d, not the arrival queue %d"
                 entry.queue q0);
            incr tasks_dropped;
            stop.(lo) <- lo
          end
          else begin
            (* truncate at the first revisit of q0 *)
            let k = ref (lo + 1) in
            while !k < stop.(lo) && kept.(order.(!k)).queue <> q0 do
              incr k
            done;
            if !k < stop.(lo) then
              record ~task Inconsistent_route
                "task revisits the arrival queue; dropping its remaining events";
            stop.(lo) <- !k;
            kept_events := !kept_events + (!k - lo)
          end))
    arrival_queue;
  let report kept =
    {
      errors = !errors;
      lines_read;
      events_kept = kept;
      events_dropped = !candidates - kept;
      tasks_dropped = !tasks_dropped;
    }
  in
  if !kept_events = 0 then Error (report 0)
  else begin
    let events = Array.make !kept_events placeholder in
    let j = ref 0 in
    each_task (fun lo ->
        for k = lo to stop.(lo) - 1 do
          events.(!j) <- kept.(order.(k));
          incr j
        done);
    try Ok (of_array ~num_queues events, report !kept_events)
    with Invalid_argument msg ->
      (* The repair passes above should make this unreachable, but a
         residual inconsistency must degrade into a report, not an
         exception — that is the lenient contract. *)
      record Malformed_line ("residual inconsistency: " ^ msg);
      Error (report 0)
  end

let of_events_lenient ~num_queues events =
  if num_queues <= 0 then invalid_arg "Trace.of_events_lenient: num_queues must be positive";
  let n = List.length events in
  lenient ~num_queues ~capacity:n (fun candidate _ ->
      List.iter (candidate 0) events;
      n)

let of_csv_lenient ~num_queues text =
  if num_queues <= 0 then invalid_arg "Trace.of_csv_lenient: num_queues must be positive";
  (* at most one record per line *)
  lenient ~num_queues ~capacity:(count_newlines text 0 (String.length text) + 1) (fun candidate malformed ->
      let lines_read = ref 0 in
      let l = new_line () in
      let pos = ref 0 and lineno = ref 0 in
      while !pos <= String.length text do
        incr lineno;
        let stop = match read_canonical text !pos l with s -> s | exception Failure _ -> -1 in
        if stop >= 0 then begin
          incr lines_read;
          candidate !lineno l.prev;
          pos := stop + 1
        end
        else begin
          let stop = scan_line text !pos l in
          if l.first < l.last then begin
            incr lines_read;
            (* unlike [of_csv], the header test reads the trimmed line *)
            if not (!lineno = 1 && starts_with_task text l.first l.last) then
              if l.commas <> 4 then
                malformed !lineno
                  (Printf.sprintf "expected 5 comma-separated fields, got %d" (l.commas + 1))
              else begin
                trim_fields text l;
                match read_event text l with
                | exception Failure _ -> malformed !lineno "unparseable numeric field"
                | e -> candidate !lineno e
              end
          end;
          pos := stop + 1
        end
      done;
      !lines_read)

let load_lenient ~num_queues path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        Ok (of_csv_lenient ~num_queues text))
  with Sys_error msg -> Error msg

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let load ~num_queues path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        of_csv ~num_queues text)
  with Sys_error msg -> Error msg

let pp_summary ppf t =
  let lo, hi = span t in
  Format.fprintf ppf "trace: %d tasks, %d events, %d queues, time span [%.3f, %.3f]@."
    t.num_tasks (Array.length t.events) t.num_queues lo hi;
  Format.fprintf ppf "%6s %8s %12s %12s %8s@." "queue" "events" "mean-serv" "mean-wait"
    "util";
  for q = 0 to t.num_queues - 1 do
    let service, waiting = service_and_waiting t q in
    let n = Array.length service in
    if n > 0 then begin
      let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
      Format.fprintf ppf "%6d %8d %12.5f %12.5f %8.3f@." q n (mean service)
        (mean waiting) (utilization t q)
    end
  done
