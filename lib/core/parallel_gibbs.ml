module Rng = Qnet_prob.Rng
module Store = Event_store

type t = {
  classes : int array array; (* per colour: the latent events of that colour *)
  num_domains : int;
  generation : int; (* Store.generation at plan time; staleness guard *)
}

(* Everything a move on [f] reads (beyond its own departure): the
   write set is only d_f, so two latent events conflict iff one is in
   the other's read set. *)
let blanket store f =
  let acc = ref [] in
  let add i = if i >= 0 then acc := i :: !acc in
  let p = Store.pi store f in
  let r = Store.rho store f in
  let e = Store.pi_inv store f in
  let g = Store.rho_inv store f in
  add p;
  add r;
  add e;
  add g;
  if e >= 0 then begin
    let re = Store.rho store e in
    add re;
    if re >= 0 then add (Store.pi store re);
    let ne = Store.rho_inv store e in
    add ne;
    if ne >= 0 then add (Store.pi store ne)
  end;
  if g >= 0 then add (Store.pi store g);
  !acc

let plan ?num_domains store =
  let num_domains =
    match num_domains with
    | Some d ->
        if d < 1 then invalid_arg "Parallel_gibbs.plan: need >= 1 domain";
        d
    | None -> Stdlib.max 1 (Domain.recommended_domain_count () - 1)
  in
  let latent = Store.unobserved_events store in
  let is_latent = Array.make (Store.num_events store) false in
  Array.iter (fun i -> is_latent.(i) <- true) latent;
  (* adjacency over latent events *)
  let neighbours = Hashtbl.create (Array.length latent * 2) in
  let add_edge a b =
    if a <> b then begin
      let cur = try Hashtbl.find neighbours a with Not_found -> [] in
      Hashtbl.replace neighbours a (b :: cur)
    end
  in
  Array.iter
    (fun f ->
      List.iter
        (fun x ->
          if is_latent.(x) then begin
            add_edge f x;
            add_edge x f
          end)
        (blanket store f))
    latent;
  (* greedy colouring in index order *)
  let color = Hashtbl.create (Array.length latent) in
  let max_color = ref 0 in
  Array.iter
    (fun f ->
      let used =
        List.filter_map
          (fun x -> Hashtbl.find_opt color x)
          (try Hashtbl.find neighbours f with Not_found -> [])
      in
      let rec first_free c = if List.mem c used then first_free (c + 1) else c in
      let c = first_free 0 in
      Hashtbl.replace color f c;
      if c > !max_color then max_color := c)
    latent;
  let classes = Array.make (!max_color + 1) [] in
  (* reverse order so the final arrays are in ascending event order *)
  for k = Array.length latent - 1 downto 0 do
    let f = latent.(k) in
    let c = Hashtbl.find color f in
    classes.(c) <- f :: classes.(c)
  done;
  {
    classes = Array.map Array.of_list classes;
    num_domains;
    generation = Store.generation store;
  }

let num_colors t = Array.length t.classes
let num_domains t = t.num_domains
let is_stale t store = Store.generation store <> t.generation
let refresh t store = if is_stale t store then plan ~num_domains:t.num_domains store else t

let check_fresh who t store =
  if is_stale t store then
    invalid_arg
      (Printf.sprintf
         "%s: stale plan (event-store structure changed: plan generation %d, store \
          generation %d); rebuild with Parallel_gibbs.plan or Parallel_gibbs.refresh"
         who t.generation (Store.generation store))

let sweep rng t store params =
  check_fresh "Parallel_gibbs.sweep" t store;
  Array.iter
    (fun events ->
      let n = Array.length events in
      if n > 0 then begin
        let d = Stdlib.min t.num_domains (Stdlib.max 1 (n / 16)) in
        if d <= 1 then begin
          let local = Rng.split rng in
          Gibbs.resample_range local store params events 0 n
        end
        else begin
          (* per-domain independent streams, derived from the sweep rng *)
          let streams = Array.init d (fun _ -> Rng.split rng) in
          let chunk = (n + d - 1) / d in
          let workers =
            Array.init (d - 1) (fun w ->
                let lo = (w + 1) * chunk in
                let hi = Stdlib.min n (lo + chunk) in
                Domain.spawn (fun () ->
                    if lo < hi then
                      Gibbs.resample_range streams.(w + 1) store params events lo hi))
          in
          Gibbs.resample_range streams.(0) store params events 0 (Stdlib.min chunk n);
          Array.iter Domain.join workers
        end
      end)
    t.classes

let run ~sweeps rng t store params =
  if sweeps < 0 then invalid_arg "Parallel_gibbs.run: negative sweep count";
  check_fresh "Parallel_gibbs.run" t store;
  for _ = 1 to sweeps do
    sweep rng t store params
  done
