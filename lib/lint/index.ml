(* Per-compilation-unit concurrency index.

   One [unit_info] summarizes everything the cross-module pass in
   Concurrency needs to know about a .ml file: which top-level mutable
   state, mutexes and atomics it declares; which state every function
   touches and under which locks; which mutexes are acquired while
   which others are held; which blocking primitives run inside
   critical sections; which closures are handed to Domain.spawn /
   Thread.create / Pool.submit; and the per-function Atomic.get/set op
   mix.

   Everything here is syntactic — no typing pass — so references are
   recorded as unresolved [sref]s and resolved against the merged
   index by Concurrency. The walk tracks three pieces of context:

   - the lock set: a linear, source-order approximation of which
     mutexes are held ([Mutex.lock]/[unlock] sequencing,
     [Mutex.protect] and the [Mutex.lock m; Fun.protect
     ~finally:(fun () -> Mutex.unlock m)] idiom are all understood);
   - the local scope: let/fun/match-bound names shadow unit-level
     bindings, so a local [cache] never resolves to a global one;
   - spawn position: the body of a closure passed to [Domain.spawn],
     [Thread.create] or [Pool.submit] (a job for the runtime's worker
     domains, its second argument) is summarized as its own
     pseudo-function entered with an empty lock set. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Summary types                                                       *)

type entity_kind =
  | Mutable_binding of string  (* constructor, e.g. "ref", "Hashtbl.create" *)
  | Mutable_field of string  (* declaring record type name *)

type entity = {
  e_name : string;  (* binding name (submodule-qualified) or field name *)
  e_kind : entity_kind;
  e_line : int;
  e_col : int;
}

type mutex_decl = {
  m_name : string;  (* binding or field name *)
  m_field : bool;
  m_line : int;
}

type atomic_decl = { at_name : string; at_field : bool; at_line : int }

(* An unresolved reference to a value or a field. A field reference
   deliberately drops its receiver: without types the field name is
   the only handle, and Concurrency resolves it against declared
   mutable / mutex / atomic fields. *)
type sref =
  | Rident of string list * string  (* module path components, name *)
  | Rfield of string list * string  (* module qualifier (if any), field *)

type access = {
  a_ref : sref;
  a_write : bool;
  a_held : sref list;  (* innermost first *)
  a_line : int;
  a_col : int;
}

type lock_event = {
  l_outer : sref list;  (* held when [l_inner] was acquired *)
  l_inner : sref;
  l_line : int;
}

type blocking_call = {
  b_name : string;
  b_held : sref list;  (* nonempty by construction *)
  b_line : int;
}

type call = { c_ref : sref; c_held : sref list; c_line : int }

type atomic_op = {
  o_path : string;  (* rendered target, e.g. "t.stopping" *)
  o_get : int option;  (* line of first Atomic.get *)
  o_set : int option;  (* line of first Atomic.set *)
  o_rmw : bool;  (* compare_and_set / fetch_and_add / exchange / incr *)
}

type fn = {
  f_name : string;  (* submodule-qualified binding name *)
  f_line : int;
  f_init : bool;  (* RHS is not a function: runs once at module init *)
  f_spawn : (string * int) option;  (* Some (kind, line) for spawn bodies *)
  mutable f_accesses : access list;
  mutable f_calls : call list;
  mutable f_locks : lock_event list;
  mutable f_blocking : blocking_call list;
  mutable f_atomics : (string, atomic_op) Hashtbl.t;
  mutable f_spawn_entries : (string * int * sref) list;
      (* Domain.spawn f / Thread.create f where f is a named function *)
}

type unit_info = {
  u_path : string;  (* root-relative source path *)
  u_modname : string;  (* "metrics.ml" -> "Metrics" *)
  u_dir : string;  (* "lib/obs" *)
  u_aliases : (string * string list) list;  (* module M = A.B *)
  u_fields : string list;  (* every record field the unit declares,
                              mutable or not: a field reference inside
                              the unit never resolves elsewhere *)
  u_entities : entity list;
  u_mutexes : mutex_decl list;
  u_atomics : atomic_decl list;
  u_fns : fn list;  (* includes one pseudo-fn per spawn closure *)
  u_active : bool;  (* mentions domains, threads, mutexes or atomics *)
}

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)

let lid_components lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> acc
  in
  go [] lid

let sref_to_string = function
  | Rident (path, n) -> String.concat "." (path @ [ n ])
  | Rfield (path, f) -> String.concat "." (path @ [ "." ^ f ])

(* Extract a state/mutex reference from an expression, if it has a
   simple enough shape. *)
let rec sref_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (lid_components txt) with
      | n :: rpath -> Some (Rident (List.rev rpath, n))
      | [] -> None)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (lid_components txt) with
      | f :: rpath -> Some (Rfield (List.rev rpath, f))
      | [] -> None)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> sref_of e
  | _ -> None

(* Rendered receiver path for C005 keying: "t", "t.stopping", ... *)
let rec path_string e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (lid_components txt))
  | Pexp_field (r, { txt; _ }) -> (
      match (path_string r, List.rev (lid_components txt)) with
      | Some rs, f :: _ -> Some (rs ^ "." ^ f)
      | _ -> None)
  | Pexp_constraint (e, _) -> path_string e
  | _ -> None

let line_of e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum
let col_of e =
  let p = e.pexp_loc.Location.loc_start in
  p.Lexing.pos_cnum - p.Lexing.pos_bol

(* ------------------------------------------------------------------ *)
(* Catalogues                                                          *)

let mutable_ctors =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Weak.create"; "Array.make"; "Array.create_float"; "Array.init";
    "Bytes.create"; "Bytes.make" ]

(* Container operations whose named argument (by index) mutates it. *)
let mutators =
  [ ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0); ("Queue.add", 1);
    ("Queue.push", 1); ("Queue.pop", 0); ("Queue.take", 0); ("Queue.clear", 0);
    ("Queue.transfer", 0); ("Stack.push", 1); ("Stack.pop", 0);
    ("Stack.clear", 0); ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Bytes.set", 0); ("Bytes.fill", 0); ("Bytes.blit", 2) ]

let buffer_add_prefix = "Buffer.add_"

(* Primitives that can park the calling thread (or hit the disk /
   network) — the C004 catalogue. Condition.wait is deliberately
   absent: it releases the mutex, which is the sanctioned pattern. *)
let blocking_calls =
  [ "Thread.delay"; "Thread.join"; "Unix.sleep"; "Unix.sleepf"; "Unix.select";
    "Unix.accept"; "Unix.connect"; "Unix.read"; "Unix.write"; "Unix.recv";
    "Unix.send"; "Unix.waitpid"; "Unix.system"; "Domain.join"; "input_line";
    "input"; "really_input"; "really_input_string"; "input_char"; "input_byte";
    "output_string"; "output_bytes"; "output_char"; "output"; "flush";
    "Printf.fprintf"; "Format.fprintf"; "open_in"; "open_in_bin"; "open_out";
    "open_out_bin"; "open_out_gen"; "close_in"; "close_out"; "read_line" ]

(* ------------------------------------------------------------------ *)
(* Scope                                                               *)

module S = Set.Make (String)

let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> S.add txt acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (S.add txt acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pat_vars acc p
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fields
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p)
  | Ppat_exception p ->
      pat_vars acc p
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

type wctx = {
  fn : fn;
  spawns : fn list ref;  (* freshly minted spawn pseudo-fns, in order *)
  spawn_counter : int ref;
}

let fresh_fn ~name ~line ~init ~spawn =
  {
    f_name = name;
    f_line = line;
    f_init = init;
    f_spawn = spawn;
    f_accesses = [];
    f_calls = [];
    f_locks = [];
    f_blocking = [];
    f_atomics = Hashtbl.create 4;
    f_spawn_entries = [];
  }

let record_access ctx ~scope ~held ~write e =
  match sref_of e with
  | None -> ()
  | Some (Rident ([], n)) when S.mem n scope -> ()  (* shadowed local *)
  | Some r ->
      ctx.fn.f_accesses <-
        { a_ref = r; a_write = write; a_held = held; a_line = line_of e;
          a_col = col_of e }
        :: ctx.fn.f_accesses

let record_atomic ctx e ~op =
  match path_string e with
  | None -> ()
  | Some p ->
      let line = line_of e in
      let cur =
        match Hashtbl.find_opt ctx.fn.f_atomics p with
        | Some o -> o
        | None -> { o_path = p; o_get = None; o_set = None; o_rmw = false }
      in
      let cur =
        match op with
        | `Get -> if cur.o_get = None then { cur with o_get = Some line } else cur
        | `Set -> if cur.o_set = None then { cur with o_set = Some line } else cur
        | `Rmw -> { cur with o_rmw = true }
      in
      Hashtbl.replace ctx.fn.f_atomics p cur

let remove_first x xs =
  let rec go = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: go rest
  in
  go xs

(* walk returns the lock set after the expression. *)
let rec walk ctx scope held e =
  let w = walk ctx scope in
  match e.pexp_desc with
  | Pexp_ident _ ->
      record_access ctx ~scope ~held ~write:false e;
      held
  | Pexp_field (recv, _) ->
      record_access ctx ~scope ~held ~write:false e;
      ignore (w held recv);
      held
  | Pexp_setfield (recv, { txt; _ }, v) ->
      (match List.rev (lid_components txt) with
      | f :: rpath ->
          ctx.fn.f_accesses <-
            { a_ref = Rfield (List.rev rpath, f); a_write = true; a_held = held;
              a_line = line_of e; a_col = col_of e }
            :: ctx.fn.f_accesses
      | [] -> ());
      ignore (w held recv);
      ignore (w held v);
      held
  | Pexp_sequence (a, b) ->
      let held = w held a in
      w held b
  | Pexp_let (rf, vbs, body) ->
      let scope' =
        List.fold_left (fun acc vb -> pat_vars acc vb.pvb_pat) scope vbs
      in
      let rhs_scope = if rf = Asttypes.Recursive then scope' else scope in
      let held =
        List.fold_left (fun h vb -> walk ctx rhs_scope h vb.pvb_expr) held vbs
      in
      walk ctx scope' held body
  | Pexp_fun (_, default, pat, body) ->
      (match default with Some d -> ignore (w held d) | None -> ());
      (* callbacks usually run where they are built: keep the ambient
         lock set (spawned closures are special-cased at the apply) *)
      ignore (walk ctx (pat_vars scope pat) held body);
      held
  | Pexp_function cases ->
      walk_cases ctx scope held cases;
      held
  | Pexp_apply (f, args) -> walk_apply ctx scope held e f args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let held = w held scrut in
      walk_cases ctx scope held cases;
      held
  | Pexp_ifthenelse (c, a, b) ->
      let held = w held c in
      ignore (w held a);
      (match b with Some b -> ignore (w held b) | None -> ());
      held
  | Pexp_while (c, body) ->
      ignore (w held c);
      ignore (w held body);
      held
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (w held lo);
      ignore (w held hi);
      ignore (walk ctx (pat_vars scope pat) held body);
      held
  | Pexp_tuple es | Pexp_array es ->
      List.iter (fun e -> ignore (w held e)) es;
      held
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      (match arg with Some a -> ignore (w held a) | None -> ());
      held
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> ignore (w held v)) fields;
      (match base with Some b -> ignore (w held b) | None -> ());
      held
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e
  | Pexp_assert e | Pexp_newtype (_, e) | Pexp_open (_, e)
  | Pexp_letexception (_, e) | Pexp_poly (e, _) ->
      w held e
  | Pexp_letmodule (_, _, body) -> w held body
  | Pexp_letop { let_; ands; body; _ } ->
      ignore (w held let_.pbop_exp);
      List.iter (fun a -> ignore (w held a.pbop_exp)) ands;
      let scope' =
        List.fold_left
          (fun acc b -> pat_vars acc b.pbop_pat)
          (pat_vars scope let_.pbop_pat) ands
      in
      ignore (walk ctx scope' held body);
      held
  | Pexp_send (e, _) -> w held e
  | _ -> held

and walk_cases ctx scope held cases =
  List.iter
    (fun c ->
      let scope' = pat_vars scope c.pc_lhs in
      (match c.pc_guard with
      | Some g -> ignore (walk ctx scope' held g)
      | None -> ());
      ignore (walk ctx scope' held c.pc_rhs))
    cases

and walk_apply ctx scope held app f args =
  let fname =
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> String.concat "." (lid_components txt)
    | _ -> ""
  in
  let plain = List.map snd args in
  let walk_args held = List.iter (fun a -> ignore (walk ctx scope held a)) plain in
  match (fname, plain) with
  | "Mutex.lock", [ m ] -> (
      match sref_of m with
      | Some mr ->
          ctx.fn.f_locks <-
            { l_outer = held; l_inner = mr; l_line = line_of app }
            :: ctx.fn.f_locks;
          mr :: held
      | None -> held)
  | "Mutex.unlock", [ m ] -> (
      match sref_of m with
      | Some mr -> remove_first mr held
      | None -> held)
  | ("Mutex.protect" | "Mutex.with_lock"), m :: rest -> (
      match sref_of m with
      | Some mr ->
          ctx.fn.f_locks <-
            { l_outer = held; l_inner = mr; l_line = line_of app }
            :: ctx.fn.f_locks;
          let inner = mr :: held in
          List.iter
            (fun arg ->
              match arg.pexp_desc with
              | Pexp_fun (_, _, pat, body) ->
                  ignore (walk ctx (pat_vars scope pat) inner body)
              | _ -> (
                  ignore (walk ctx scope inner arg);
                  (* a named thunk runs under the lock *)
                  match sref_of arg with
                  | Some (Rident ([], n)) when S.mem n scope -> ()
                  | Some r ->
                      ctx.fn.f_calls <-
                        { c_ref = r; c_held = inner; c_line = line_of arg }
                        :: ctx.fn.f_calls
                  | None -> ()))
            rest;
          held
      | None ->
          walk_args held;
          held)
  | "Fun.protect", _ ->
      (* main thunk first (under the current lock set), then finally —
         so [Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock
         m) body] leaves the lock set balanced. *)
      let finally, body =
        List.partition
          (fun (lbl, _) ->
            match lbl with
            | Asttypes.Labelled "finally" | Asttypes.Optional "finally" -> true
            | _ -> false)
          args
      in
      List.iter (fun (_, a) -> ignore (walk ctx scope held a)) body;
      List.fold_left (fun h (_, a) -> walk ctx scope h a) held finally
  | ("Domain.spawn" | "Thread.create"), fn_arg :: rest
  | "Pool.submit", _ :: fn_arg :: rest ->
      let kind =
        match fname with
        | "Domain.spawn" -> "domain"
        | "Pool.submit" -> "pool"
        | _ -> "thread"
      in
      (match fn_arg.pexp_desc with
      | Pexp_fun (_, _, pat, body) ->
          incr ctx.spawn_counter;
          let sfn =
            fresh_fn
              ~name:
                (Printf.sprintf "%s.<spawn#%d>" ctx.fn.f_name !(ctx.spawn_counter))
              ~line:(line_of fn_arg) ~init:false
              ~spawn:(Some (kind, line_of fn_arg))
          in
          let sctx = { ctx with fn = sfn } in
          ignore (walk sctx (pat_vars scope pat) [] body);
          ctx.spawns := sfn :: !(ctx.spawns)
      | _ -> (
          match sref_of fn_arg with
          | Some (Rident ([], n)) when S.mem n scope -> ()
          | Some r ->
              ctx.fn.f_spawn_entries <-
                (kind, line_of fn_arg, r) :: ctx.fn.f_spawn_entries
          | None -> ignore (walk ctx scope held fn_arg)));
      List.iter (fun a -> ignore (walk ctx scope held a)) rest;
      held
  | "Atomic.get", [ a ] ->
      record_atomic ctx a ~op:`Get;
      held
  | "Atomic.set", [ a; v ] ->
      record_atomic ctx a ~op:`Set;
      ignore (walk ctx scope held v);
      held
  | ( ("Atomic.compare_and_set" | "Atomic.exchange" | "Atomic.fetch_and_add"
      | "Atomic.incr" | "Atomic.decr"),
      a :: rest ) ->
      record_atomic ctx a ~op:`Rmw;
      List.iter (fun v -> ignore (walk ctx scope held v)) rest;
      held
  | ":=", [ l; r ] ->
      record_access ctx ~scope ~held ~write:true l;
      ignore (walk ctx scope held r);
      held
  | "!", [ l ] ->
      record_access ctx ~scope ~held ~write:false l;
      held
  | ("incr" | "decr"), [ l ] ->
      record_access ctx ~scope ~held ~write:true l;
      held
  | _ ->
      (* generic application: a call edge for the head, blocking check,
         mutation upgrades for known container operations, then the
         arguments in order *)
      (match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match List.rev (lid_components txt) with
          | n :: rpath ->
              let path = List.rev rpath in
              if not (path = [] && S.mem n scope) then
                ctx.fn.f_calls <-
                  { c_ref = Rident (path, n); c_held = held; c_line = line_of app }
                  :: ctx.fn.f_calls
          | [] -> ())
      | _ -> ignore (walk ctx scope held f));
      if
        held <> []
        && (List.mem fname blocking_calls
           || (String.length fname >= String.length buffer_add_prefix
              && String.sub fname 0 (String.length buffer_add_prefix)
                 = buffer_add_prefix
              && fname = "Buffer.add_channel"))
      then
        ctx.fn.f_blocking <-
          { b_name = fname; b_held = held; b_line = line_of app }
          :: ctx.fn.f_blocking;
      (match List.assoc_opt fname mutators with
      | Some idx -> (
          match List.nth_opt plain idx with
          | Some target -> record_access ctx ~scope ~held ~write:true target
          | None -> ())
      | None -> ());
      walk_args held;
      held

(* ------------------------------------------------------------------ *)
(* Structure traversal: bindings, types, submodules                    *)

let qualify prefix name = if prefix = "" then name else prefix ^ "." ^ name

let binding_name vb =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go vb.pvb_pat

let rec peel_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel_constraint e
  | _ -> e

let rec is_function e =
  match (peel_constraint e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* Classify a top-level RHS: what kind of shared state does it create? *)
let classify_rhs mutable_field_names e =
  let e = peel_constraint e in
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      let n = String.concat "." (lid_components txt) in
      if n = "Mutex.create" then `Mutex
      else if n = "Atomic.make" then `Atomic
      else if List.mem n mutable_ctors then `Mutable n
      else `Plain)
  | Pexp_array (_ :: _) -> `Mutable "array literal"
  | Pexp_record (fields, _)
    when List.exists
           (fun ({ Location.txt; _ }, _) ->
             match List.rev (lid_components txt) with
             | f :: _ -> List.mem f mutable_field_names
             | [] -> false)
           fields ->
      `Mutable "mutable record"
  | _ -> `Plain

let core_type_head ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> String.concat "." (lid_components txt)
  | _ -> ""

type builder = {
  mutable entities : entity list;
  mutable mutexes : mutex_decl list;
  mutable atomics : atomic_decl list;
  mutable fns : fn list;
  mutable aliases : (string * string list) list;
  mutable fields : string list;
  mutable saw_concurrency : bool;
  b_spawn_counter : int ref;
}

let add_type_decl b td =
  match td.ptype_kind with
  | Ptype_record labels ->
      List.iter
        (fun ld ->
          let name = ld.pld_name.Location.txt in
          let line = ld.pld_loc.Location.loc_start.Lexing.pos_lnum in
          let head = core_type_head ld.pld_type in
          if not (List.mem name b.fields) then b.fields <- name :: b.fields;
          if head = "Mutex.t" then begin
            b.mutexes <- { m_name = name; m_field = true; m_line = line } :: b.mutexes;
            b.saw_concurrency <- true
          end
          else if head = "Atomic.t" then begin
            b.atomics <- { at_name = name; at_field = true; at_line = line } :: b.atomics;
            b.saw_concurrency <- true
          end
          else if ld.pld_mutable = Asttypes.Mutable then
            b.entities <-
              {
                e_name = name;
                e_kind = Mutable_field td.ptype_name.Location.txt;
                e_line = line;
                e_col =
                  ld.pld_loc.Location.loc_start.Lexing.pos_cnum
                  - ld.pld_loc.Location.loc_start.Lexing.pos_bol;
              }
              :: b.entities)
        labels
  | _ -> ()

let rec add_structure b ~prefix str = List.iter (add_item b ~prefix) str

and add_item b ~prefix si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let name =
            match binding_name vb with
            | Some n -> qualify prefix n
            | None -> qualify prefix "(pattern)"
          in
          let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
          let col =
            vb.pvb_loc.Location.loc_start.Lexing.pos_cnum
            - vb.pvb_loc.Location.loc_start.Lexing.pos_bol
          in
          let mutable_field_names =
            List.filter_map
              (fun e ->
                match e.e_kind with Mutable_field _ -> Some e.e_name | _ -> None)
              b.entities
          in
          (match classify_rhs mutable_field_names vb.pvb_expr with
          | `Mutex ->
              b.mutexes <-
                { m_name = name; m_field = false; m_line = line } :: b.mutexes;
              b.saw_concurrency <- true
          | `Atomic ->
              b.atomics <-
                { at_name = name; at_field = false; at_line = line } :: b.atomics;
              b.saw_concurrency <- true
          | `Mutable ctor ->
              b.entities <-
                { e_name = name; e_kind = Mutable_binding ctor; e_line = line;
                  e_col = col }
                :: b.entities
          | `Plain -> ());
          let fn =
            fresh_fn ~name ~line
              ~init:(not (is_function vb.pvb_expr))
              ~spawn:None
          in
          let spawns = ref [] in
          let ctx = { fn; spawns; spawn_counter = b.b_spawn_counter } in
          ignore (walk ctx S.empty [] vb.pvb_expr);
          b.fns <- List.rev !spawns @ (fn :: b.fns))
        vbs
  | Pstr_type (_, tds) -> List.iter (add_type_decl b) tds
  | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } ->
      add_module_expr b ~prefix:(qualify prefix m) pmb_expr
  | Pstr_module { pmb_name = { txt = None; _ }; pmb_expr; _ } ->
      add_module_expr b ~prefix pmb_expr
  | Pstr_recmodule mbs ->
      List.iter
        (fun mb ->
          let prefix =
            match mb.pmb_name.Location.txt with
            | Some m -> qualify prefix m
            | None -> prefix
          in
          add_module_expr b ~prefix mb.pmb_expr)
        mbs
  | Pstr_include { pincl_mod; _ } -> add_module_expr b ~prefix pincl_mod
  | _ -> ()

and add_module_expr b ~prefix m =
  match m.pmod_desc with
  | Pmod_structure s -> add_structure b ~prefix s
  | Pmod_functor (_, body) -> add_module_expr b ~prefix body
  | Pmod_constraint (m, _) -> add_module_expr b ~prefix m
  | Pmod_ident { txt; _ } ->
      (* module M = A.B at any level: record the alias under its
         qualified name *)
      if prefix <> "" then b.aliases <- (prefix, lid_components txt) :: b.aliases
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let modname_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

let of_structure ~path str =
  let b =
    {
      entities = [];
      mutexes = [];
      atomics = [];
      fns = [];
      aliases = [];
      fields = [];
      saw_concurrency = false;
      b_spawn_counter = ref 0;
    }
  in
  add_structure b ~prefix:"" str;
  let fns = List.rev b.fns in
  let active =
    b.saw_concurrency
    || List.exists
         (fun f ->
           f.f_spawn <> None || f.f_spawn_entries <> [] || f.f_locks <> []
           || Hashtbl.length f.f_atomics > 0
           || List.exists
                (fun c ->
                  match c.c_ref with
                  | Rident (("Domain" | "Thread" | "Mutex" | "Atomic") :: _, _)
                    ->
                      true
                  | _ -> false)
                f.f_calls)
         fns
  in
  {
    u_path = path;
    u_modname = modname_of_path path;
    u_dir = Filename.dirname path;
    u_aliases = b.aliases;
    u_fields = b.fields;
    u_entities = List.rev b.entities;
    u_mutexes = List.rev b.mutexes;
    u_atomics = List.rev b.atomics;
    u_fns = fns;
    u_active = active;
  }
