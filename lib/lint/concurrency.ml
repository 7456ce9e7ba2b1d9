(* Cross-module concurrency analysis over merged per-unit indexes.

   Resolution is name-based (no typing pass): a module path resolves
   through recorded [module M = ...] aliases to a compilation unit by
   its rightmost component that names one; a field reference resolves
   against declared mutable / Mutex.t / Atomic.t fields, preferring
   the referencing unit, then a unique global candidate, then a
   same-directory candidate, and is otherwise dropped — unresolved
   references never produce findings.

   Only *active* units (ones that themselves mention domains, threads,
   mutexes or atomics) contribute state entities: a ref in a module
   with no concurrency vocabulary is single-domain by construction and
   is D002's business, not ours.

   The rules:

   C001  mutable state reachable unguarded from a spawned closure,
         with no lock discipline anywhere in the program;
   C002  cycles in the cross-module lock-order graph (edges from both
         syntactic Mutex.lock/protect nesting and calls made while a
         mutex is held into functions that acquire more locks);
   C003  guard inconsistency: state locked at some sites but accessed
         bare from a spawn-reachable context;
   C004  blocking primitives (Unix.*, channel I/O, Thread.delay/join)
         executed — directly or through a call — while holding a mutex;
   C005  an Atomic.get and Atomic.set of the same target in the same
         function with no RMW primitive: a lost-update window.

   C001/C003 share one reachability pass: BFS from every spawned
   closure over the resolved call graph, tracking whether the current
   context is guarded (entered through a call made while a lock was
   held). Bare accesses only count as violations in unguarded
   contexts; module-initialization code is only visited if a spawned
   context actually calls it, so construct-then-publish patterns don't
   fire. *)

type site = { s_file : string; s_line : int; s_col : int }

type deep_finding = {
  df : Finding.t;
  df_entity : (string * int) option;
      (* declaration file/line: a racy-ok there also covers this *)
}

type node = {
  n_key : string;
  n_display : string;
  n_file : string;
  n_line : int;
}

type edge = {
  e_from : string;  (* node keys *)
  e_to : string;
  e_file : string;
  e_line : int;
  e_via : string;
}

type stats = {
  st_units : int;
  st_active : int;
  st_entities : int;
  st_accesses : int;  (* accesses that resolved to a state entity *)
  st_guarded : int;  (* of those, made while holding a mutex *)
  st_spawns : int;
  st_mutexes : int;
  st_edges : int;
}

type report = {
  r_findings : deep_finding list;
  r_nodes : node list;
  r_edges : edge list;
  r_cycles : string list list;  (* node display names, one list per cycle *)
  r_stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Resolution environment                                              *)

type uinfo = {
  u : Index.unit_info;
  ents : (string, Index.entity) Hashtbl.t;
  muts : (string, Index.mutex_decl) Hashtbl.t;
  atos : (string, Index.atomic_decl) Hashtbl.t;
  fn_tbl : (string, Index.fn) Hashtbl.t;
}

type env = {
  uinfos : uinfo list;
  by_mod : (string, uinfo list) Hashtbl.t;
  field_ent : (string, (uinfo * Index.entity) list) Hashtbl.t;
  field_mut : (string, (uinfo * Index.mutex_decl) list) Hashtbl.t;
}

let last_component name =
  match List.rev (String.split_on_char '.' name) with
  | x :: _ -> x
  | [] -> name

let add_multi tbl k v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  Hashtbl.replace tbl k (cur @ [ v ])

let build_env units =
  let uinfos =
    List.map
      (fun (u : Index.unit_info) ->
        let ents = Hashtbl.create 16 in
        let muts = Hashtbl.create 4 in
        let atos = Hashtbl.create 4 in
        let fn_tbl = Hashtbl.create 32 in
        List.iter
          (fun (e : Index.entity) ->
            if not (Hashtbl.mem ents e.Index.e_name) then
              Hashtbl.add ents e.Index.e_name e;
            let l = last_component e.Index.e_name in
            if not (Hashtbl.mem ents l) then Hashtbl.add ents l e)
          u.Index.u_entities;
        List.iter
          (fun (m : Index.mutex_decl) ->
            if not (Hashtbl.mem muts m.Index.m_name) then
              Hashtbl.add muts m.Index.m_name m;
            let l = last_component m.Index.m_name in
            if not (Hashtbl.mem muts l) then Hashtbl.add muts l m)
          u.Index.u_mutexes;
        List.iter
          (fun (a : Index.atomic_decl) ->
            if not (Hashtbl.mem atos a.Index.at_name) then
              Hashtbl.add atos a.Index.at_name a;
            let l = last_component a.Index.at_name in
            if not (Hashtbl.mem atos l) then Hashtbl.add atos l a)
          u.Index.u_atomics;
        List.iter
          (fun (f : Index.fn) ->
            if not (Hashtbl.mem fn_tbl f.Index.f_name) then
              Hashtbl.add fn_tbl f.Index.f_name f;
            let l = last_component f.Index.f_name in
            if not (Hashtbl.mem fn_tbl l) then Hashtbl.add fn_tbl l f)
          u.Index.u_fns;
        { u; ents; muts; atos; fn_tbl })
      units
  in
  let by_mod = Hashtbl.create 64 in
  let field_ent = Hashtbl.create 64 in
  let field_mut = Hashtbl.create 16 in
  List.iter
    (fun ui ->
      add_multi by_mod ui.u.Index.u_modname ui;
      if ui.u.Index.u_active then
        List.iter
          (fun (e : Index.entity) ->
            match e.Index.e_kind with
            | Index.Mutable_field _ -> add_multi field_ent e.Index.e_name (ui, e)
            | Index.Mutable_binding _ -> ())
          ui.u.Index.u_entities;
      List.iter
        (fun (m : Index.mutex_decl) ->
          if m.Index.m_field then add_multi field_mut m.Index.m_name (ui, m))
        ui.u.Index.u_mutexes)
    uinfos;
  { uinfos; by_mod; field_ent; field_mut }

(* Pick among global candidates: the referencing unit itself, else a
   unique candidate, else a unique same-directory candidate. *)
let pick_candidate ~(from : uinfo) candidates =
  match List.filter (fun (ui, _) -> ui.u.Index.u_path = from.u.Index.u_path) candidates with
  | [ c ] -> Some c
  | _ -> (
      match candidates with
      | [ c ] -> Some c
      | _ -> (
          match
            List.filter
              (fun (ui, _) -> ui.u.Index.u_dir = from.u.Index.u_dir)
              candidates
          with
          | [ c ] -> Some c
          | _ -> None))

let expand_alias (from : uinfo) path =
  match path with
  | first :: rest -> (
      match List.assoc_opt first from.u.Index.u_aliases with
      | Some target -> target @ rest
      | None -> path)
  | [] -> path

(* Locate the unit a qualified path refers to; returns the unit and
   the intra-unit qualifier (submodule components right of the unit
   name). Scans right-to-left so [Qnet_obs.Metrics.Counter] hits
   [Metrics] rather than the library wrapper. *)
let target_unit env ~(from : uinfo) path =
  let path = expand_alias from path in
  let arr = Array.of_list path in
  let n = Array.length arr in
  let rec scan i =
    if i < 0 then None
    else
      match Hashtbl.find_opt env.by_mod arr.(i) with
      | Some (_ :: _ as cands) ->
          let rest = Array.to_list (Array.sub arr (i + 1) (n - i - 1)) in
          let ui =
            match
              List.filter (fun ui -> ui.u.Index.u_dir = from.u.Index.u_dir) cands
            with
            | [ ui ] -> ui
            | _ -> List.hd cands
          in
          Some (ui, rest)
      | _ -> scan (i - 1)
  in
  scan (n - 1)

type target =
  | T_entity of uinfo * Index.entity
  | T_mutex of uinfo * Index.mutex_decl
  | T_atomic
  | T_fn of uinfo * Index.fn
  | T_unknown

let lookup_in (ui : uinfo) name =
  match Hashtbl.find_opt ui.muts name with
  | Some m -> T_mutex (ui, m)
  | None -> (
      match Hashtbl.find_opt ui.atos name with
      | Some _ -> T_atomic
      | None -> (
          match Hashtbl.find_opt ui.ents name with
          | Some e -> T_entity (ui, e)
          | None -> (
              match Hashtbl.find_opt ui.fn_tbl name with
              | Some f -> T_fn (ui, f)
              | None -> T_unknown)))

let resolve env ~(from : uinfo) (r : Index.sref) =
  match r with
  | Index.Rident ([], n) -> lookup_in from n
  | Index.Rident (path, n) -> (
      match target_unit env ~from path with
      | None -> T_unknown
      | Some (ui, rest) -> (
          let qualified = String.concat "." (rest @ [ n ]) in
          match lookup_in ui qualified with
          | T_unknown when rest <> [] -> lookup_in ui n
          | t -> t))
  | Index.Rfield (qual, f) when qual <> [] -> (
      (* A qualified projection like [trace.Trace.events] names the
         declaring unit explicitly: resolve the field there or nowhere —
         never against a same-named field in an unrelated unit. *)
      match target_unit env ~from qual with
      | None -> T_unknown
      | Some (ui, _) -> (
          match Hashtbl.find_opt ui.muts f with
          | Some m when m.Index.m_field -> T_mutex (ui, m)
          | _ -> (
              match Hashtbl.find_opt ui.atos f with
              | Some a when a.Index.at_field -> T_atomic
              | _ -> (
                  match Hashtbl.find_opt ui.ents f with
                  | Some ({ Index.e_kind = Index.Mutable_field _; _ } as e) ->
                      T_entity (ui, e)
                  | _ -> T_unknown))))
  | Index.Rfield (_, f) -> (
      (* own unit's field declarations win *)
      let own_mut =
        match Hashtbl.find_opt from.muts f with
        | Some m when m.Index.m_field -> Some m
        | _ -> None
      in
      let own_ato =
        match Hashtbl.find_opt from.atos f with
        | Some a when a.Index.at_field -> Some a
        | _ -> None
      in
      let own_ent =
        match Hashtbl.find_opt from.ents f with
        | Some ({ Index.e_kind = Index.Mutable_field _; _ } as e) -> Some e
        | _ -> None
      in
      match (own_mut, own_ato, own_ent) with
      | Some m, _, _ -> T_mutex (from, m)
      | None, Some _, _ -> T_atomic
      | None, None, Some e -> T_entity (from, e)
      | None, None, None ->
          (* A unit that declares the field name at all — even as an
             immutable field of its own record — resolves it locally;
             falling through to a same-named mutable field elsewhere
             would misattribute most of the program's [n]s and
             [params]s. *)
          if List.mem f from.u.Index.u_fields then T_unknown
          else (
            let muts =
              Option.value ~default:[] (Hashtbl.find_opt env.field_mut f)
            in
            match pick_candidate ~from muts with
            | Some (ui, m) -> T_mutex (ui, m)
            | None -> (
                let ents =
                  Option.value ~default:[] (Hashtbl.find_opt env.field_ent f)
                in
                match pick_candidate ~from ents with
                | Some (ui, e) -> T_entity (ui, e)
                | None -> T_unknown)))

let resolve_state env ~from r =
  match resolve env ~from r with
  | T_entity (ui, e) when ui.u.Index.u_active -> Some (ui, e)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Mutex nodes                                                         *)

let mnode_of env ~(from : uinfo) (r : Index.sref) ~site_line =
  match resolve env ~from r with
  | T_mutex (ui, m) ->
      {
        n_key = ui.u.Index.u_path ^ "#" ^ m.Index.m_name;
        n_display = ui.u.Index.u_modname ^ "." ^ m.Index.m_name;
        n_file = ui.u.Index.u_path;
        n_line = m.Index.m_line;
      }
  | _ ->
      (* lock of something we cannot name globally: keep it as a
         unit-local node so intra-module ordering still applies *)
      {
        n_key = from.u.Index.u_path ^ "#?" ^ Index.sref_to_string r;
        n_display = from.u.Index.u_modname ^ ":" ^ Index.sref_to_string r;
        n_file = from.u.Index.u_path;
        n_line = site_line;
      }

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

let fn_key (ui : uinfo) (f : Index.fn) = ui.u.Index.u_path ^ "#" ^ f.Index.f_name

let spawn_label = function
  | "domain" -> "Domain.spawn"
  | "pool" -> "Pool.submit"
  | _ -> "Thread.create"

let compare_site a b =
  match compare a.s_file b.s_file with
  | 0 -> (
      match compare a.s_line b.s_line with
      | 0 -> compare a.s_col b.s_col
      | c -> c)
  | c -> c

let finding ~code ~site message =
  Finding.v ~code ~file:site.s_file ~line:site.s_line ~col:site.s_col message

module SS = Set.Make (String)

let analyze units =
  let env = build_env units in
  let nodes : (string, node) Hashtbl.t = Hashtbl.create 32 in
  let note_node n = if not (Hashtbl.mem nodes n.n_key) then Hashtbl.add nodes n.n_key n in
  let all_fns =
    List.concat_map
      (fun ui -> List.map (fun f -> (ui, f)) ui.u.Index.u_fns)
      env.uinfos
  in
  let fn_index : (string, uinfo * Index.fn) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (ui, f) ->
      let k = fn_key ui f in
      if not (Hashtbl.mem fn_index k) then Hashtbl.add fn_index k (ui, f))
    all_fns;
  let callee_key ui (c : Index.call) =
    match resolve env ~from:ui c.Index.c_ref with
    | T_fn (cui, cf) -> Some (fn_key cui cf)
    | _ -> None
  in

  (* ---- C001 / C003: reachability from spawned contexts ------------ *)
  (* state per fn: 0 = unvisited, 1 = guarded only, 2 = unguarded *)
  let reach : (string, int * string) Hashtbl.t = Hashtbl.create 128 in
  let queue = Queue.create () in
  let push key ~guarded ~origin =
    let level = if guarded then 1 else 2 in
    match Hashtbl.find_opt reach key with
    | Some (l, _) when l >= level -> ()
    | _ ->
        Hashtbl.replace reach key (level, origin);
        Queue.add (key, guarded, origin) queue
  in
  List.iter
    (fun (ui, (f : Index.fn)) ->
      (match f.Index.f_spawn with
      | Some (kind, line) ->
          let origin =
            Printf.sprintf "%s closure at %s:%d" (spawn_label kind)
              ui.u.Index.u_path line
          in
          push (fn_key ui f) ~guarded:false ~origin
      | None -> ());
      List.iter
        (fun (kind, line, r) ->
          match resolve env ~from:ui r with
          | T_fn (cui, cf) ->
              let origin =
                Printf.sprintf "%s %s at %s:%d" (spawn_label kind)
                  cf.Index.f_name ui.u.Index.u_path line
              in
              push (fn_key cui cf) ~guarded:false ~origin
          | _ -> ())
        f.Index.f_spawn_entries)
    all_fns;
  while not (Queue.is_empty queue) do
    let key, guarded, origin = Queue.pop queue in
    match Hashtbl.find_opt fn_index key with
    | None -> ()
    | Some (ui, f) ->
        List.iter
          (fun (c : Index.call) ->
            match callee_key ui c with
            | Some ck ->
                push ck ~guarded:(guarded || c.Index.c_held <> []) ~origin
            | None -> ())
          f.Index.f_calls
  done;

  (* entity evidence tables *)
  let ent_key (ui : uinfo) (e : Index.entity) =
    ui.u.Index.u_path ^ "#" ^ e.Index.e_name
  in
  let locked_at : (string, site * string) Hashtbl.t = Hashtbl.create 64 in
  let bare_hits : (string, (site * string) list) Hashtbl.t = Hashtbl.create 64 in
  let ent_info : (string, uinfo * Index.entity) Hashtbl.t = Hashtbl.create 64 in
  let ent_written : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_state_accesses = ref 0 and n_guarded_accesses = ref 0 in
  List.iter
    (fun (ui, (f : Index.fn)) ->
      let ctx = Hashtbl.find_opt reach (fn_key ui f) in
      List.iter
        (fun (a : Index.access) ->
          match resolve_state env ~from:ui a.Index.a_ref with
          | None -> ()
          | Some (eui, e) ->
              incr n_state_accesses;
              if a.Index.a_held <> [] then incr n_guarded_accesses;
              let k = ent_key eui e in
              if not (Hashtbl.mem ent_info k) then
                Hashtbl.add ent_info k (eui, e);
              if a.Index.a_write then Hashtbl.replace ent_written k ();
              let st =
                { s_file = ui.u.Index.u_path; s_line = a.Index.a_line;
                  s_col = a.Index.a_col }
              in
              if a.Index.a_held <> [] then begin
                let m = mnode_of env ~from:ui (List.hd a.Index.a_held)
                          ~site_line:a.Index.a_line in
                match Hashtbl.find_opt locked_at k with
                | Some (prev, _) when compare_site prev st <= 0 -> ()
                | _ -> Hashtbl.replace locked_at k (st, m.n_display)
              end
              else
                match ctx with
                | Some (2, origin) ->
                    let cur =
                      Option.value ~default:[] (Hashtbl.find_opt bare_hits k)
                    in
                    Hashtbl.replace bare_hits k ((st, origin) :: cur)
                | _ -> ())
        (List.rev f.Index.f_accesses))
    all_fns;
  let c001_c003 =
    Hashtbl.fold (fun k hits acc -> (k, hits) :: acc) bare_hits []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    (* never-written state (lookup tables, precomputed arrays) is
       effectively immutable data: reads cannot race *)
    |> List.filter (fun (k, _) -> Hashtbl.mem ent_written k)
    |> List.filter_map (fun (k, hits) ->
           let eui, e = Hashtbl.find ent_info k in
           let site, origin =
             List.fold_left
               (fun (bs, bo) (s, o) ->
                 if compare_site s bs < 0 then (s, o) else (bs, bo))
               (List.hd hits) (List.tl hits)
           in
           let decl = (eui.u.Index.u_path, e.Index.e_line) in
           let what =
             match e.Index.e_kind with
             | Index.Mutable_binding ctor ->
                 Printf.sprintf "mutable binding %s.%s (%s, declared at %s:%d)"
                   eui.u.Index.u_modname e.Index.e_name ctor
                   eui.u.Index.u_path e.Index.e_line
             | Index.Mutable_field ty ->
                 Printf.sprintf "mutable field %s.%s.%s (declared at %s:%d)"
                   eui.u.Index.u_modname ty e.Index.e_name
                   eui.u.Index.u_path e.Index.e_line
           in
           match Hashtbl.find_opt locked_at k with
           | Some (lsite, mutex) ->
               Some
                 {
                   df =
                     finding ~code:"C003" ~site
                       (Printf.sprintf
                          "%s is guarded by %s at %s:%d but accessed bare here \
                           in a context reachable from %s; take the lock or \
                           annotate the declaration racy-ok C003"
                          what mutex lsite.s_file lsite.s_line origin);
                   df_entity = Some decl;
                 }
           | None ->
               Some
                 {
                   df =
                     finding ~code:"C001" ~site
                       (Printf.sprintf
                          "%s is accessed with no lock discipline anywhere and \
                           is reachable from %s; guard it with a mutex, make \
                           it Atomic, or annotate the declaration racy-ok C001"
                          what origin);
                   df_entity = Some decl;
                 })
  in

  (* ---- lock graph and C002 ---------------------------------------- *)
  let edges : (string * string, edge) Hashtbl.t = Hashtbl.create 64 in
  let note_edge e =
    if e.e_from <> e.e_to then
      match Hashtbl.find_opt edges (e.e_from, e.e_to) with
      | Some prev
        when compare (prev.e_file, prev.e_line) (e.e_file, e.e_line) <= 0 ->
          ()
      | _ -> Hashtbl.replace edges (e.e_from, e.e_to) e
  in
  (* direct nesting edges + per-fn direct acquisition sets *)
  let direct_acq : (string, SS.t) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun (ui, (f : Index.fn)) ->
      let acq = ref SS.empty in
      List.iter
        (fun (l : Index.lock_event) ->
          let inner = mnode_of env ~from:ui l.Index.l_inner ~site_line:l.Index.l_line in
          note_node inner;
          acq := SS.add inner.n_key !acq;
          List.iter
            (fun o ->
              let outer = mnode_of env ~from:ui o ~site_line:l.Index.l_line in
              note_node outer;
              note_edge
                {
                  e_from = outer.n_key;
                  e_to = inner.n_key;
                  e_file = ui.u.Index.u_path;
                  e_line = l.Index.l_line;
                  e_via =
                    Printf.sprintf "%s acquired in %s.%s while holding %s"
                      inner.n_display ui.u.Index.u_modname f.Index.f_name
                      outer.n_display;
                })
            l.Index.l_outer)
        f.Index.f_locks;
      Hashtbl.replace direct_acq (fn_key ui f) !acq)
    all_fns;
  (* Acquires*(fn): fixpoint over the call graph *)
  let acq_star : (string, SS.t) Hashtbl.t = Hashtbl.copy direct_acq in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (ui, (f : Index.fn)) ->
        let k = fn_key ui f in
        let cur = Option.value ~default:SS.empty (Hashtbl.find_opt acq_star k) in
        let next =
          List.fold_left
            (fun acc (c : Index.call) ->
              match callee_key ui c with
              | Some ck ->
                  SS.union acc
                    (Option.value ~default:SS.empty (Hashtbl.find_opt acq_star ck))
              | None -> acc)
            cur f.Index.f_calls
        in
        if not (SS.equal next cur) then begin
          Hashtbl.replace acq_star k next;
          changed := true
        end)
      all_fns
  done;
  (* interprocedural edges: held at a call -> anything the callee
     (transitively) acquires *)
  List.iter
    (fun (ui, (f : Index.fn)) ->
      List.iter
        (fun (c : Index.call) ->
          if c.Index.c_held <> [] then
            match callee_key ui c with
            | None -> ()
            | Some ck ->
                let acq =
                  Option.value ~default:SS.empty (Hashtbl.find_opt acq_star ck)
                in
                if not (SS.is_empty acq) then
                  let cui, cf = Hashtbl.find fn_index ck in
                  List.iter
                    (fun h ->
                      let hn = mnode_of env ~from:ui h ~site_line:c.Index.c_line in
                      note_node hn;
                      SS.iter
                        (fun a ->
                          match Hashtbl.find_opt nodes a with
                          | None -> ()
                          | Some an ->
                              note_edge
                                {
                                  e_from = hn.n_key;
                                  e_to = an.n_key;
                                  e_file = ui.u.Index.u_path;
                                  e_line = c.Index.c_line;
                                  e_via =
                                    Printf.sprintf
                                      "call to %s.%s under %s reaches an \
                                       acquisition of %s"
                                      cui.u.Index.u_modname cf.Index.f_name
                                      hn.n_display an.n_display;
                                })
                        acq)
                    c.Index.c_held)
        f.Index.f_calls)
    all_fns;
  let edge_list =
    Hashtbl.fold (fun _ e acc -> e :: acc) edges []
    |> List.sort (fun a b ->
           compare (a.e_from, a.e_to, a.e_file, a.e_line)
             (b.e_from, b.e_to, b.e_file, b.e_line))
  in
  (* SCCs (Kosaraju) over the edge set *)
  let adj : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let radj : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let graph_nodes = ref SS.empty in
  List.iter
    (fun e ->
      graph_nodes := SS.add e.e_from (SS.add e.e_to !graph_nodes);
      add_multi adj e.e_from e.e_to;
      add_multi radj e.e_to e.e_from)
    edge_list;
  let order = ref [] in
  let seen = Hashtbl.create 32 in
  let rec dfs1 v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      List.iter dfs1 (Option.value ~default:[] (Hashtbl.find_opt adj v));
      order := v :: !order
    end
  in
  SS.iter dfs1 !graph_nodes;
  let comp = Hashtbl.create 32 in
  let rec dfs2 root v =
    if not (Hashtbl.mem comp v) then begin
      Hashtbl.add comp v root;
      List.iter (dfs2 root) (Option.value ~default:[] (Hashtbl.find_opt radj v))
    end
  in
  List.iter (fun v -> dfs2 v v) !order;
  let sccs : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  SS.iter
    (fun v ->
      let r = Hashtbl.find comp v in
      add_multi sccs r v)
    !graph_nodes;
  let cycles =
    Hashtbl.fold
      (fun _ members acc ->
        if List.length members >= 2 then List.sort compare members :: acc
        else acc)
      sccs []
    |> List.sort compare
  in
  let c002 =
    List.map
      (fun members ->
        let mset = SS.of_list members in
        let internal =
          List.filter
            (fun e -> SS.mem e.e_from mset && SS.mem e.e_to mset)
            edge_list
        in
        let first =
          List.fold_left
            (fun best e ->
              if compare (e.e_file, e.e_line) (best.e_file, best.e_line) < 0
              then e
              else best)
            (List.hd internal) (List.tl internal)
        in
        let display k =
          match Hashtbl.find_opt nodes k with
          | Some n -> n.n_display
          | None -> k
        in
        let desc =
          List.map
            (fun e ->
              Printf.sprintf "%s -> %s (%s:%d)" (display e.e_from)
                (display e.e_to) e.e_file e.e_line)
            internal
          |> String.concat "; "
        in
        {
          df =
            finding ~code:"C002"
              ~site:{ s_file = first.e_file; s_line = first.e_line; s_col = 0 }
              (Printf.sprintf
                 "lock-order cycle between %s: %s; acquire these mutexes in \
                  one global order"
                 (String.concat ", " (List.map display members))
                 desc);
          df_entity = None;
        })
      cycles
  in

  (* ---- C004: blocking while holding a mutex ----------------------- *)
  let direct_c004 =
    List.concat_map
      (fun (ui, (f : Index.fn)) ->
        List.map
          (fun (b : Index.blocking_call) ->
            let m =
              mnode_of env ~from:ui (List.hd b.Index.b_held)
                ~site_line:b.Index.b_line
            in
            {
              df =
                finding ~code:"C004"
                  ~site:{ s_file = ui.u.Index.u_path; s_line = b.Index.b_line;
                          s_col = 0 }
                  (Printf.sprintf
                     "%s called while holding %s in %s.%s; move the blocking \
                      call outside the critical section or annotate racy-ok \
                      C004"
                     b.Index.b_name m.n_display ui.u.Index.u_modname
                     f.Index.f_name);
              df_entity = None;
            })
          (List.rev f.Index.f_blocking))
      all_fns
  in
  (* breach(fn): some blocking primitive reachable through calls *)
  let breach : (string, string * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ui, (f : Index.fn)) ->
      match List.rev f.Index.f_blocking with
      | b :: _ ->
          Hashtbl.replace breach (fn_key ui f)
            ( b.Index.b_name,
              Printf.sprintf "%s:%d" ui.u.Index.u_path b.Index.b_line )
      | [] -> ())
    all_fns;
  (* also seed with fns whose blocking calls happen with no lock held:
     those are not in f_blocking, so rescan calls for blocking names *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (ui, (f : Index.fn)) ->
        let k = fn_key ui f in
        if not (Hashtbl.mem breach k) then
          List.iter
            (fun (c : Index.call) ->
              if not (Hashtbl.mem breach k) then
                match callee_key ui c with
                | Some ck when ck <> k -> (
                    match Hashtbl.find_opt breach ck with
                    | Some (prim, where) ->
                        Hashtbl.replace breach k (prim, where);
                        changed := true
                    | None -> ())
                | _ -> ())
            f.Index.f_calls)
      all_fns
  done;
  let indirect_c004 =
    List.concat_map
      (fun (ui, (f : Index.fn)) ->
        if f.Index.f_blocking <> [] then []
        else
          List.filter_map
            (fun (c : Index.call) ->
              if c.Index.c_held = [] then None
              else
                match callee_key ui c with
                | Some ck when ck <> fn_key ui f -> (
                    match Hashtbl.find_opt breach ck with
                    | Some (prim, where) ->
                        let cui, cf = Hashtbl.find fn_index ck in
                        let m =
                          mnode_of env ~from:ui (List.hd c.Index.c_held)
                            ~site_line:c.Index.c_line
                        in
                        Some
                          {
                            df =
                              finding ~code:"C004"
                                ~site:{ s_file = ui.u.Index.u_path;
                                        s_line = c.Index.c_line; s_col = 0 }
                                (Printf.sprintf
                                   "call to %s.%s while holding %s can block: \
                                    it reaches %s (%s); move the call outside \
                                    the critical section or annotate racy-ok \
                                    C004"
                                   cui.u.Index.u_modname cf.Index.f_name
                                   m.n_display prim where);
                            df_entity = None;
                          }
                    | None -> None)
                | _ -> None)
            f.Index.f_calls)
      all_fns
  in

  (* ---- C005: split atomic read-modify-write ----------------------- *)
  let c005 =
    List.concat_map
      (fun (ui, (f : Index.fn)) ->
        Hashtbl.fold (fun _ (o : Index.atomic_op) acc -> o :: acc)
          f.Index.f_atomics []
        |> List.sort (fun a b -> compare a.Index.o_path b.Index.o_path)
        |> List.filter_map (fun (o : Index.atomic_op) ->
               match (o.Index.o_get, o.Index.o_set, o.Index.o_rmw) with
               | Some gl, Some sl, false ->
                   Some
                     {
                       df =
                         finding ~code:"C005"
                           ~site:{ s_file = ui.u.Index.u_path;
                                   s_line = max gl sl; s_col = 0 }
                           (Printf.sprintf
                              "%s.%s reads %s with Atomic.get (line %d) and \
                               writes it with Atomic.set (line %d): a lost \
                               update window; use compare_and_set / \
                               fetch_and_add, or annotate racy-ok C005 if \
                               single-writer"
                              ui.u.Index.u_modname f.Index.f_name
                              o.Index.o_path gl sl);
                       df_entity = None;
                     }
               | _ -> None))
      all_fns
  in

  (* ---- assemble ---------------------------------------------------- *)
  let findings =
    c001_c003 @ c002 @ direct_c004 @ indirect_c004 @ c005
    |> List.sort (fun a b -> Finding.compare_by_pos a.df b.df)
  in
  let node_list =
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.sort (fun a b -> compare a.n_key b.n_key)
  in
  let n_spawns =
    List.fold_left
      (fun acc (_, (f : Index.fn)) ->
        acc
        + (if f.Index.f_spawn <> None then 1 else 0)
        + List.length f.Index.f_spawn_entries)
      0 all_fns
  in
  let active = List.filter (fun ui -> ui.u.Index.u_active) env.uinfos in
  let stats =
    {
      st_units = List.length env.uinfos;
      st_active = List.length active;
      st_entities =
        List.fold_left
          (fun acc ui -> acc + List.length ui.u.Index.u_entities)
          0 active;
      st_accesses = !n_state_accesses;
      st_guarded = !n_guarded_accesses;
      st_spawns = n_spawns;
      st_mutexes =
        List.fold_left
          (fun acc ui -> acc + List.length ui.u.Index.u_mutexes)
          0 active;
      st_edges = List.length edge_list;
    }
  in
  {
    r_findings = findings;
    r_nodes = node_list;
    r_edges = edge_list;
    r_cycles =
      List.map
        (List.map (fun k ->
             match Hashtbl.find_opt nodes k with
             | Some n -> n.n_display
             | None -> k))
        cycles;
    r_stats = stats;
  }
