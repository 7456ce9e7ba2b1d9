module Trace = Qnet_trace.Trace

type item = { at : float; line : string; poison : bool }

let tenant_key ~tenants task = Printf.sprintf "t%d" (task mod tenants)

(* Realistic corruptions the daemon's ingest decoder rejects; none is
   empty, since empty lines are skipped, not quarantined. *)
let poison_variants =
  [|
    (* truncated JSON *)
    "{\"tenant\":\"t0\",\"task\":1,\"queue\":0,\"arr";
    (* NaN field *)
    "t0,7,0,1,nan,2.5";
    (* queue id far out of range *)
    "{\"tenant\":\"t0\",\"task\":3,\"queue\":999,\"arrival\":0.1,\"departure\":0.2}";
    (* wrong field count *)
    "t1,4,0";
    (* tenant key with a forbidden character *)
    "{\"tenant\":\"no spaces\",\"task\":2,\"queue\":0,\"arrival\":0.1,\"departure\":0.2}";
    (* negative time *)
    "t2,5,0,1,-3.0,1.0";
    (* binary junk *)
    "\x01\x02\x7fgarbage";
  |]

let poison_line i = poison_variants.(i mod Array.length poison_variants)

let event_line ~tenants (e : Trace.event) =
  Printf.sprintf
    "{\"tenant\":\"%s\",\"task\":%d,\"state\":%d,\"queue\":%d,\"arrival\":%.17g,\"departure\":%.17g}"
    (tenant_key ~tenants e.Trace.task)
    e.Trace.task e.Trace.state e.Trace.queue e.Trace.arrival e.Trace.departure

let plan ?(speedup = 1.0) ?(poison = 0) ~tenants trace =
  if tenants < 1 then invalid_arg "Replay.plan: tenants must be >= 1";
  if speedup <= 0.0 || not (Float.is_finite speedup) then
    invalid_arg "Replay.plan: speedup must be positive";
  if poison < 0 then invalid_arg "Replay.plan: poison must be >= 0";
  let events = Array.copy trace.Trace.events in
  (* stable sort: completion order, original order on ties *)
  let indexed = Array.mapi (fun i e -> (i, e)) events in
  Array.sort
    (fun (i, (a : Trace.event)) (j, b) ->
      match Float.compare a.Trace.departure b.Trace.departure with
      | 0 -> Int.compare i j
      | c -> c)
    indexed;
  let n = Array.length indexed in
  let t0 = if n = 0 then 0.0 else (snd indexed.(0)).Trace.departure in
  let base =
    Array.to_list
      (Array.map
         (fun (_, e) ->
           {
             at = (e.Trace.departure -. t0) /. speedup;
             line = event_line ~tenants e;
             poison = false;
           })
         indexed)
  in
  if poison = 0 then base
  else begin
    (* interleave poison evenly: after every [stride] clean lines,
       inheriting the preceding event's offset so pacing is unchanged *)
    let stride = Stdlib.max 1 (n / (poison + 1)) in
    let rec weave i injected acc = function
      | [] ->
          (* any poison not yet placed (short traces) trails the end *)
          let rec trail k acc =
            if k >= poison then List.rev acc
            else
              let at =
                match acc with [] -> 0.0 | it :: _ -> it.at
              in
              trail (k + 1) ({ at; line = poison_line k; poison = true } :: acc)
          in
          trail injected acc
      | it :: rest ->
          let acc = it :: acc in
          if injected < poison && (i + 1) mod stride = 0 then
            weave (i + 1) (injected + 1)
              ({ at = it.at; line = poison_line injected; poison = true }
               :: acc)
              rest
          else weave (i + 1) injected acc rest
    in
    weave 0 0 [] base
  end
