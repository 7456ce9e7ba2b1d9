module Heartbeat = struct
  (* One immutable cell swapped atomically per beat: the chain domain
     is the only writer, the supervisor domain the only reader, so a
     plain [Atomic.set] of a fresh record is race-free and lock-free. *)
  type cell = { at : float; sweep : int; beats : int; done_ : bool }
  type t = cell Atomic.t

  let create () = Atomic.make { at = 0.0; sweep = 0; beats = 0; done_ = true }

  let arm t ~now =
    let c = Atomic.get t in
    Atomic.set t { at = now; sweep = c.sweep; beats = c.beats; done_ = false }  (* qnet-lint: racy-ok C005 single writer: the chain's own round job arms, then beats *)

  let beat t ~now ~sweep =
    let c = Atomic.get t in
    Atomic.set t { at = now; sweep; beats = c.beats + 1; done_ = c.done_ }  (* qnet-lint: racy-ok C005 single writer: only the watched chain beats *)

  let mark_done t =
    let c = Atomic.get t in
    Atomic.set t { c with done_ = true }  (* qnet-lint: racy-ok C005 single writer: only the watched chain marks done *)

  let is_done t = (Atomic.get t).done_

  let last t =
    let c = Atomic.get t in
    (c.at, c.sweep)

  let beats t = (Atomic.get t).beats

  let age t ~now =
    let c = Atomic.get t in
    Float.max 0.0 (now -. c.at)
end

type verdict = Done | Alive of float | Stalled of float

let pp_verdict ppf = function
  | Done -> Format.pp_print_string ppf "done"
  | Alive age -> Format.fprintf ppf "alive (%.3fs since last beat)" age
  | Stalled age -> Format.fprintf ppf "STALLED (%.3fs since last beat)" age

type t = { deadline : float; hbs : Heartbeat.t array; misses : int Atomic.t }

let create ~deadline hbs =
  if not (Float.is_finite deadline && deadline > 0.0) then
    invalid_arg "Watchdog.create: deadline must be finite and positive";
  { deadline; hbs; misses = Atomic.make 0 }

let deadline t = t.deadline

let judge t ~now hb =
  if Heartbeat.is_done hb then Done
  else begin
    let at, _ = Heartbeat.last hb in
    let age = now -. at in
    if age > t.deadline then Stalled age else Alive age
  end

let misses t = Atomic.get t.misses

let poll ~now t =
  Array.map
    (fun hb ->
      let v = judge t ~now hb in
      (match v with
      | Stalled _ -> Atomic.incr t.misses
      | Done | Alive _ -> ());
      v)
    t.hbs

let stalled ~now t =
  let acc = ref [] in
  Array.iteri
    (fun i hb -> match judge t ~now hb with Stalled _ -> acc := i :: !acc | _ -> ())
    t.hbs;
  List.rev !acc
