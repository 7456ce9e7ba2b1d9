module Clock = Qnet_obs.Clock

type 'a t = {
  mutex : Mutex.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

type policy = Shed | Block

let policy_of_string = function
  | "shed" -> Ok Shed
  | "block" -> Ok Block
  | s -> Error (Printf.sprintf "bad policy %S (want shed or block)" s)

let create ~capacity =
  if capacity < 1 then
    invalid_arg "Bounded_queue.create: capacity must be >= 1";
  { mutex = Mutex.create (); items = Queue.create (); capacity; closed = false }

let capacity t = t.capacity
let length t = Mutex.protect t.mutex (fun () -> Queue.length t.items)

let try_push t x =
  Mutex.protect t.mutex (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.add x t.items;
        true
      end)

(* Waiters poll: see the .mli for why not Condition. *)
let poll_sleep = 0.002

let push_wait ~timeout t x =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    if try_push t x then true
    else if is_closed t || Clock.now () >= deadline then false
    else begin
      Thread.delay poll_sleep;
      go ()
    end
  and is_closed t = Mutex.protect t.mutex (fun () -> t.closed) in
  go ()

let pop_batch ?(max = 256) ~timeout t =
  let take () =
    Mutex.protect t.mutex (fun () ->
        if Queue.is_empty t.items then
          if t.closed then Some [] else None
        else begin
          let n = Stdlib.min max (Queue.length t.items) in
          let out = ref [] in
          for _ = 1 to n do
            out := Queue.pop t.items :: !out
          done;
          Some (List.rev !out)
        end)
  in
  let deadline = Clock.now () +. timeout in
  let rec go () =
    match take () with
    | Some batch -> batch
    | None ->
        if Clock.now () >= deadline then []
        else begin
          Thread.delay poll_sleep;
          go ()
        end
  in
  go ()

let close t = Mutex.protect t.mutex (fun () -> t.closed <- true)
let is_closed t = Mutex.protect t.mutex (fun () -> t.closed)
