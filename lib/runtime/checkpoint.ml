module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Clock = Qnet_obs.Clock

let m_bytes =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |]
       ~help:"Encoded size of persisted checkpoints, bytes" "qnet_checkpoint_bytes")

let m_write_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
       ~help:"Wall time to encode, write and atomically rename one checkpoint"
       "qnet_checkpoint_write_seconds")

let m_written =
  lazy
    (Metrics.Counter.create ~help:"Checkpoints persisted to disk"
       "qnet_checkpoints_written_total")

type t = {
  iteration : int;
  rng_state : int64 array;
  params : Params.t;
  anchor : Params.t;
  snapshot : Store.snapshot;
  history : Params.t array;
  llh : float array;
}

let capture ?into (c : Qnet_core.Stem.chain) =
  {
    iteration = c.iteration;
    rng_state = Qnet_prob.Rng.state c.rng;
    params = c.params;
    anchor = c.anchor;
    snapshot = Store.snapshot ?into:(Option.map (fun ck -> ck.snapshot) into) c.store;
    history = Array.sub c.history 0 c.iteration;
    llh = Array.sub c.llh 0 c.iteration;
  }

let rollback ck (c : Qnet_core.Stem.chain) =
  Store.restore c.store ck.snapshot;
  c.params <- ck.params;
  c.iteration <- ck.iteration

let magic = "QNETCKPT"
let version = 1

(* --- FNV-1a 64-bit, over the encoded payload ---------------------- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv1a s ~pos ~len =
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

(* --- encoding ----------------------------------------------------- *)

let add_i64 buf v = Buffer.add_int64_le buf v
let add_int buf v = add_i64 buf (Int64.of_int v)
let add_float buf v = add_i64 buf (Int64.bits_of_float v)

let add_int_array buf a =
  add_int buf (Array.length a);
  Array.iter (add_int buf) a

let add_float_array buf a =
  add_int buf (Array.length a);
  Array.iter (add_float buf) a

let add_params buf p =
  add_int buf p.Params.arrival_queue;
  add_float_array buf p.Params.rates

let to_bytes ck =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_int buf version;
  add_int buf ck.iteration;
  add_int buf (Array.length ck.rng_state);
  Array.iter (add_i64 buf) ck.rng_state;
  add_params buf ck.params;
  add_params buf ck.anchor;
  add_float_array buf ck.snapshot.Store.s_departure;
  add_int_array buf ck.snapshot.Store.s_queue;
  add_int_array buf ck.snapshot.Store.s_rho;
  add_int_array buf ck.snapshot.Store.s_rho_inv;
  add_int_array buf ck.snapshot.Store.s_heads;
  add_int buf (Array.length ck.history);
  Array.iter (fun p -> add_params buf p) ck.history;
  add_float_array buf ck.llh;
  let payload = Buffer.contents buf in
  let sum = fnv1a payload ~pos:0 ~len:(String.length payload) in
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_string buf payload;
  add_i64 buf sum;
  Buffer.contents buf

(* --- decoding ----------------------------------------------------- *)

exception Malformed of string

let of_bytes s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s - 8 then raise (Malformed "truncated payload")
  in
  let get_i64 () =
    need 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let get_int () =
    let v = Int64.to_int (get_i64 ()) in
    if v < 0 || v > 0x3FFFFFFF then raise (Malformed "implausible count");
    v
  in
  let get_float () = Int64.float_of_bits (get_i64 ()) in
  let get_signed_int () = Int64.to_int (get_i64 ()) in
  let get_int_array () =
    let n = get_int () in
    Array.init n (fun _ -> get_signed_int ())
  in
  let get_float_array () =
    let n = get_int () in
    Array.init n (fun _ -> get_float ())
  in
  let get_params () =
    let arrival_queue = get_int () in
    let rates = get_float_array () in
    try Params.create ~rates ~arrival_queue
    with Invalid_argument m -> raise (Malformed ("bad parameters: " ^ m))
  in
  try
    if String.length s < String.length magic + 16 then Error "file too short"
    else if String.sub s 0 (String.length magic) <> magic then
      Error "bad magic (not a qnet checkpoint)"
    else begin
      let stored_sum =
        String.get_int64_le s (String.length s - 8)
      in
      let sum = fnv1a s ~pos:0 ~len:(String.length s - 8) in
      if not (Int64.equal sum stored_sum) then
        Error "checksum mismatch (corrupt or truncated checkpoint)"
      else begin
        pos := String.length magic;
        let v = get_int () in
        if v <> version then
          Error (Printf.sprintf "unsupported checkpoint version %d (want %d)" v version)
        else begin
          let iteration = get_int () in
          let nwords = get_int () in
          if nwords <> 4 then raise (Malformed "bad rng state size");
          let rng_state = Array.init nwords (fun _ -> get_i64 ()) in
          let params = get_params () in
          let anchor = get_params () in
          let s_departure = get_float_array () in
          let s_queue = get_int_array () in
          let s_rho = get_int_array () in
          let s_rho_inv = get_int_array () in
          let s_heads = get_int_array () in
          let h = get_int () in
          let history = Array.init h (fun _ -> get_params ()) in
          let llh = get_float_array () in
          if h <> iteration then raise (Malformed "history length disagrees with iteration");
          if Array.length llh <> h then raise (Malformed "llh length disagrees with history");
          let n = Array.length s_departure in
          if Array.length s_queue <> n || Array.length s_rho <> n
             || Array.length s_rho_inv <> n
          then raise (Malformed "snapshot arrays disagree on event count");
          Ok
            {
              iteration;
              rng_state;
              params;
              anchor;
              snapshot = { Store.s_departure; s_queue; s_rho; s_rho_inv; s_heads };
              history;
              llh;
            }
        end
      end
    end
  with Malformed m -> Error ("malformed checkpoint: " ^ m)

(* --- file I/O ----------------------------------------------------- *)

let save ~path ck =
  Span.with_span "checkpoint.save" @@ fun () ->
  let instrumented = Metrics.enabled () in
  let t0 = if instrumented then Clock.now () else 0.0 in
  let bytes = to_bytes ck in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes);
  Sys.rename tmp path;
  if instrumented then begin
    Metrics.Histogram.observe (Lazy.force m_bytes)
      (float_of_int (String.length bytes));
    Metrics.Histogram.observe (Lazy.force m_write_seconds) (Clock.now () -. t0);
    Metrics.Counter.inc (Lazy.force m_written)
  end

let load ~path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        of_bytes (really_input_string ic len))
  with Sys_error m -> Error m
