module Rng = Qnet_prob.Rng
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Gibbs = Qnet_core.Gibbs
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Diagnostics = Qnet_obs.Diagnostics

let m_incidents =
  lazy
    (Metrics.Counter.create
       ~help:"Validation failures and exceptions recovered by rollback-and-retry"
       "qnet_runtime_incidents_total")

type config = {
  stem : Stem.config;
  checkpoint_every : int;
  checkpoint_path : string option;
  validate_every : int;
  max_retries : int;
  max_seconds : float option;
}

let default_config =
  {
    stem = Stem.default_config;
    checkpoint_every = 25;
    checkpoint_path = None;
    validate_every = 10;
    max_retries = 3;
    max_seconds = None;
  }

type status = Completed | Budget_exhausted | Aborted of string

type incident = { at_iteration : int; cause : string }

type report = {
  iterations_done : int;
  retries : int;
  incidents : incident list;
  checkpoints_written : int;
  resumed_at : int option;
  wall_seconds : float;
}

type result = {
  params : Params.t;
  params_last : Params.t;
  history : Params.t array;
  mean_service : float array;
  log_likelihood_history : float array;
  status : status;
  report : report;
}

let pp_status ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Budget_exhausted -> Format.pp_print_string ppf "budget-exhausted"
  | Aborted m -> Format.fprintf ppf "aborted (%s)" m

let pp_report ppf r =
  Format.fprintf ppf
    "runtime: %d iterations in %.2fs, %d retries, %d checkpoints written%a@."
    r.iterations_done r.wall_seconds r.retries r.checkpoints_written
    (fun ppf -> function
      | Some it -> Format.fprintf ppf ", resumed at iteration %d" it
      | None -> ())
    r.resumed_at;
  List.iter
    (fun i -> Format.fprintf ppf "  incident at iteration %d: %s@." i.at_iteration i.cause)
    r.incidents

(* Single clamped time source for the whole runtime (D001): wall time
   only ever flows through the high-water-marked telemetry clock. *)
let now () = Qnet_obs.Clock.now ()

let run ?(config = default_config) ?init ?resume ?chaos ?diagnostics rng store =
  Span.with_span "runtime.run" @@ fun () ->
  let c = config.stem in
  if c.Stem.iterations < 1 then invalid_arg "Runtime.run: need at least one iteration";
  if c.Stem.burn_in < 0 || c.Stem.burn_in >= c.Stem.iterations then
    invalid_arg "Runtime.run: burn_in must be in [0, iterations)";
  if config.validate_every < 1 then
    invalid_arg "Runtime.run: validate_every must be >= 1";
  if config.checkpoint_every < 0 then
    invalid_arg "Runtime.run: checkpoint_every must be >= 0";
  if config.max_retries < 0 then invalid_arg "Runtime.run: max_retries must be >= 0";
  let t0 = now () in
  let iterations = c.Stem.iterations in
  let chain =
    match resume with
    | Some ck ->
        if Array.length ck.Checkpoint.snapshot.Store.s_departure <> Store.num_events store
        then invalid_arg "Runtime.run: checkpoint event count does not match store";
        if Params.num_queues ck.Checkpoint.params <> Store.num_queues store then
          invalid_arg "Runtime.run: checkpoint queue count does not match store";
        if ck.Checkpoint.iteration > iterations then
          invalid_arg "Runtime.run: checkpoint is beyond the configured iteration count";
        Store.restore store ck.Checkpoint.snapshot;
        Rng.set_state rng ck.Checkpoint.rng_state;
        let history = Array.make iterations ck.Checkpoint.params in
        let llh = Array.make iterations nan in
        Array.blit ck.Checkpoint.history 0 history 0 ck.Checkpoint.iteration;
        Array.blit ck.Checkpoint.llh 0 llh 0 ck.Checkpoint.iteration;
        {
          Stem.id = 0;
          store;
          rng;
          anchor = ck.Checkpoint.anchor;
          history;
          llh;
          params = ck.Checkpoint.params;
          iteration = ck.Checkpoint.iteration;
        }
    | None ->
        let chain, init_outcome = Stem.start ?init c rng store in
        (match init_outcome with
        | Ok () -> ()
        | Error msg -> failwith ("Runtime.run: initialization failed: " ^ msg));
        Stem.warmup c chain;
        chain
  in
  let checkpoints_written = ref 0 in
  let persist ck =
    match config.checkpoint_path with
    | Some path ->
        Checkpoint.save ~path ck;
        incr checkpoints_written
    | None -> ()
  in
  (* The rollback point. Even with checkpointing disabled we keep the
     initial state so the first recovery has somewhere to go. *)
  let last_good = ref (Checkpoint.capture chain) in
  let incidents = ref [] in
  let retries = ref 0 in
  let validate_every = ref config.validate_every in
  let stop = ref None in
  let check p =
    (match chaos with Some f -> f chain.Stem.iteration store | None -> ());
    let next = chain.Stem.iteration + 1 in
    let at_validation = next mod !validate_every = 0 || next = iterations in
    let at_checkpoint = config.checkpoint_every > 0 && next mod config.checkpoint_every = 0 in
    (* Always validate what is about to become a rollback point: a
       poisoned "last good" state would make recovery a no-op. *)
    if at_validation || at_checkpoint then
      match Health.check store p with [] -> Ok () | vs -> Error (Health.describe vs)
    else Ok ()
  in
  while !stop = None && chain.Stem.iteration < iterations do
    (match
       try Stem.step ~check ?diagnostics c chain
       with exn -> Error ("exception: " ^ Printexc.to_string exn)
     with
    | Ok () ->
        if config.checkpoint_every > 0 && chain.Stem.iteration mod config.checkpoint_every = 0
        then begin
          let ck = Checkpoint.capture chain in
          last_good := ck;
          persist ck
        end
    | Error cause ->
        incidents := { at_iteration = chain.Stem.iteration; cause } :: !incidents;
        if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_incidents);
        if !retries >= config.max_retries then
          stop :=
            Some
              (Aborted
                 (Printf.sprintf "%d retries exhausted; last incident: %s"
                    config.max_retries cause))
        else begin
          incr retries;
          (* Roll back to the last state that passed validation,
             re-jitter the latents (Init restores feasibility even if
             the rollback state was somehow damaged in memory), and
             take one fresh sweep: the RNG has advanced past the state
             that led into the fault, so the retry follows a different
             sampling path instead of replaying the crash. *)
          Checkpoint.rollback !last_good chain;
          match Stem.reinit c chain with
          | Error msg -> stop := Some (Aborted ("re-initialization failed: " ^ msg))
          | Ok () ->
              Gibbs.sweep ~shuffle:c.Stem.shuffle rng store chain.Stem.params;
              (* Exponential backoff on the validation cadence: repeated
                 transient violations should not thrash rollback. *)
              validate_every := Stdlib.min (2 * !validate_every) iterations
        end);
    if Metrics.enabled () then Option.iter Diagnostics.gc_tick diagnostics;
    match config.max_seconds with
    | Some budget
      when !stop = None && chain.Stem.iteration < iterations && now () -. t0 >= budget ->
        stop := Some Budget_exhausted
    | _ -> ()
  done;
  let done_ = chain.Stem.iteration in
  (* Persist the final state when it is not already on disk, so a
     budget-exhausted or completed run can be extended later. *)
  if config.checkpoint_every > 0 && done_ > 0 && done_ mod config.checkpoint_every <> 0
  then persist (Checkpoint.capture chain);
  let r = Stem.average c chain in
  {
    params = r.Stem.params;
    params_last = r.Stem.params_last;
    history = r.Stem.history;
    mean_service = r.Stem.mean_service;
    log_likelihood_history = r.Stem.log_likelihood_history;
    status = (match !stop with Some s -> s | None -> Completed);
    report =
      {
        iterations_done = done_;
        retries = !retries;
        incidents = List.rev !incidents;
        checkpoints_written = !checkpoints_written;
        resumed_at = Option.map (fun ck -> ck.Checkpoint.iteration) resume;
        wall_seconds = now () -. t0;
      };
  }

let resume_file ?config ?chaos ?diagnostics ~path rng store =
  match Checkpoint.load ~path with
  | Error m -> Error m
  | Ok ck -> (
      try Ok (run ?config ~resume:ck ?chaos ?diagnostics rng store)
      with Invalid_argument m -> Error m)
