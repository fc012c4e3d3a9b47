(* Persist-state abstract interpretation.

   Each persistent variable is tracked through a three-state persist
   lifecycle: Dirty (stored, line possibly cache-dirty), FlushPending
   (a pwb of its line was issued but no ordering fence has retired it),
   Durable (every path has fenced the last store). The abstract fact is
   the *collecting* powerset: per variable, the set of lifecycle states
   it can be in on some path reaching the program point, encoded as a
   3-bit mask. Join is pointwise union, so both may-queries ("can this
   var be dirty here?") and must-queries ("is it Durable on every
   path?") read off exactly — a single max-join lattice would conflate
   redundant-pwb with pwb-after-store.

   Transfer relation, per possible state (pointwise over the mask):

     store v            : v            -> {Dirty}
     pwb v              : every w on line(v):
                            Dirty -> FlushPending, others unchanged
     psync              : every w: FlushPending -> Durable
     anything else      : identity

   Pwb is line-granular (matching clwb and the PCSO axioms): flushing v
   also carries its line-mates' stores toward durability. Psync is a
   global fence: it retires every issued pwb, whatever variable it
   named. Under the lazy-pwb axioms a FlushPending value is NOT yet in
   the image — only Durable masks certify the persisted word equals the
   coherent one.

   Soundness (checked mechanically by Litmus.Axcheck): the per-thread
   facts compose to whole-program claims at a crash only for variables
   with a single writing thread; other threads' pwb/psync and the
   adversary's spontaneous write-backs can only copy the coherent value
   into the image, never un-persist it, so a claim derived from the
   writer's own program order survives every interleaving. Multi-writer
   variables are demoted to the full-unknown mask. *)

module Vars = Dataflow.Vars

type mask = int

let st_durable = 1
let st_pending = 2
let st_dirty = 4
let full_mask = st_durable lor st_pending lor st_dirty
let has_dirty m = m land st_dirty <> 0
let has_pending m = m land st_pending <> 0
(* Reachable and {Durable} only: the persisted word provably equals the
   coherent word. *)
let is_must_durable m = m <> 0 && m land (st_dirty lor st_pending) = 0

(* e.g. "durable|dirty"; the empty mask prints "unreachable". *)
let mask_name m =
  if m = 0 then "unreachable"
  else
    String.concat "|"
      (List.filter_map
         (fun (bit, n) -> if m land bit <> 0 then Some n else None)
         [ (st_durable, "durable"); (st_pending, "pending"); (st_dirty, "dirty") ])

(* --- analysis context ----------------------------------------------- *)

type t = {
  prog : Ir.program;
  pvars : Ir.var array;  (** persistent variables, declaration order *)
  index : (Ir.var, int) Hashtbl.t;
  line : int array;  (** cache-line id per variable index *)
}

let create ?lines (prog : Ir.program) : t =
  let pvars = Array.of_list (List.map fst prog.Ir.persistent) in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) pvars;
  let line =
    match lines with
    | Some f -> Array.map f pvars
    (* default layout: every persistent variable on its own line, the
       binding Exec.sim_world uses (alloc_raw ~line_start:true) *)
    | None -> Array.init (Array.length pvars) (fun i -> i)
  in
  { prog; pvars; index; line }

let pvars t = Array.to_list t.pvars
let var_index t v = Hashtbl.find_opt t.index v
let line_of t v = match var_index t v with Some i -> t.line.(i) | None -> -1

(* --- the lattice ----------------------------------------------------- *)

(* A fact is one mask per persistent variable; the zero-length array is
   bottom (unreachable), distinct from any real fact even for programs
   with no persistent variables... which have nothing to track anyway. *)
type fact = int array

module L = struct
  type t = fact

  let bottom = [||]
  let equal (a : t) b = a = b

  let join a b =
    if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else Array.init (Array.length a) (fun i -> a.(i) lor b.(i))
end

module Solver = Dataflow.Make (L)

let step_pwb m =
  m land st_durable
  lor (if m land (st_dirty lor st_pending) <> 0 then st_pending else 0)

let step_psync m =
  m land st_dirty
  lor (if m land (st_pending lor st_durable) <> 0 then st_durable else 0)

let transfer t (n : Ir.node) (f : fact) : fact =
  if Array.length f = 0 then f
  else
    match n.Ir.kind with
    | Ir.Node_assign (v, _) -> (
        match var_index t v with
        | Some i ->
            let f' = Array.copy f in
            f'.(i) <- st_dirty;
            f'
        | None -> f)
    | Ir.Node_pwb v -> (
        match var_index t v with
        | Some i ->
            let lid = t.line.(i) in
            Array.mapi
              (fun j m -> if t.line.(j) = lid then step_pwb m else m)
              f
        | None -> f)
    | Ir.Node_psync -> Array.map step_psync f
    | _ -> f

(* All variables {Durable}: the zeroed (or checkpointed) image. *)
let entry_fact t = Array.make (Array.length t.pvars) st_durable

type thread_facts = {
  tf_thread : string;
  tf_cfg : Ir.cfg;
  tf_sol : fact Dataflow.solution;
}

let solve_cfg t cfg =
  Solver.forward cfg ~init:(entry_fact t) ~transfer:(transfer t)

let analyse t : thread_facts list =
  List.map
    (fun (th : Ir.thread) ->
      let cfg = Ir.cfg_of_thread th in
      { tf_thread = th.Ir.tname; tf_cfg = cfg; tf_sol = solve_cfg t cfg })
    t.prog.Ir.threads

let mask (f : fact) i = if Array.length f = 0 then 0 else f.(i)

(* --- whole-program crash summary ------------------------------------- *)

type summary = {
  s_masks : (Ir.var * mask) list;  (** per variable, declaration order *)
  s_must_durable : Vars.t;
      (** persisted word provably equals the coherent word at every
          axiomatically-allowed crash state *)
  s_may_dirty : Vars.t;
      (** the variable's line may be cache-dirty (stored with no pwb
          since) at the crash — the over-approximation the eager-pwb
          reference model's [is_cached_dirty] must stay inside *)
  s_may_pending : Vars.t;
  s_multi_writer : Vars.t;  (** demoted to the full-unknown mask *)
}

(* Threads that syntactically write [v] anywhere (assignments only; pwb
   never changes the coherent value). *)
let writer_threads (p : Ir.program) v =
  List.filter_map
    (fun (th : Ir.thread) ->
      let rec writes s =
        List.mem v (Ir.stmt_writes s)
        ||
        match s with
        | Ir.If (_, a, b) -> List.exists writes a || List.exists writes b
        | Ir.While (_, b) -> List.exists writes b
        | _ -> false
      in
      if List.exists writes th.Ir.body then Some th.Ir.tname else None)
    p.Ir.threads

(* A copy of the thread CFG with crash nodes made terminal: an
   assignment to [crash_var] halts the whole program (the litmus
   [Crash] compilation), so no statement after it on that path ever
   executes and the exit fact must not absorb post-crash effects. *)
let truncate_at_crash ~crash_var (cfg : Ir.cfg) =
  let is_crash (n : Ir.node) =
    match n.Ir.kind with
    | Ir.Node_assign (v, _) -> v = crash_var
    | _ -> false
  in
  let nodes =
    Array.map
      (fun (n : Ir.node) -> { n with Ir.succ = n.Ir.succ; pred = n.Ir.pred })
      cfg.Ir.nodes
  in
  let crash_ids =
    Array.to_list nodes
    |> List.filter_map (fun n -> if is_crash n then Some n.Ir.id else None)
  in
  Array.iter
    (fun (n : Ir.node) ->
      if is_crash n then n.Ir.succ <- []
      else n.Ir.pred <- List.filter (fun p -> not (List.mem p crash_ids)) n.Ir.pred)
    nodes;
  ({ cfg with Ir.nodes } : Ir.cfg)

let summarize ?crash_var (t : t) : summary =
  let nv = Array.length t.pvars in
  let is_crash_node (n : Ir.node) =
    match (crash_var, n.Ir.kind) with
    | Some cv, Ir.Node_assign (v, _) -> v = cv
    | _ -> false
  in
  let per_thread =
    List.map
      (fun (th : Ir.thread) ->
        let cfg = Ir.cfg_of_thread th in
        let cfg =
          match crash_var with
          | Some cv -> truncate_at_crash ~crash_var:cv cfg
          | None -> cfg
        in
        let sol = solve_cfg t cfg in
        let crash_nodes =
          Array.to_list cfg.Ir.nodes |> List.filter is_crash_node
        in
        (cfg, sol, crash_nodes))
      t.prog.Ir.threads
  in
  let any_crash_in other =
    List.exists
      (fun (cfg, _, crashes) -> cfg != other && crashes <> [])
      per_thread
  in
  (* Per thread, the joined fact describing its possible progress when
     the program stops: its own crash points (the crash dominates: once
     it executes nothing later on that path runs), plus normal exit if
     still reachable, plus — when any OTHER thread can crash — every
     program point, since the halt can catch this thread anywhere. *)
  let thread_masks =
    List.map
      (fun (cfg, (sol : fact Dataflow.solution), crash_nodes) ->
        let m = ref L.bottom in
        List.iter
          (fun (n : Ir.node) -> m := L.join !m sol.Dataflow.inf.(n.Ir.id))
          crash_nodes;
        m := L.join !m sol.Dataflow.inf.(cfg.Ir.exit_node);
        if any_crash_in cfg then
          Array.iter
            (fun (n : Ir.node) -> m := L.join !m sol.Dataflow.inf.(n.Ir.id))
            cfg.Ir.nodes;
        !m)
      per_thread
  in
  let owners =
    List.map2
      (fun (th : Ir.thread) m -> (th.Ir.tname, m))
      t.prog.Ir.threads thread_masks
  in
  let masks =
    Array.init nv (fun i ->
        let v = t.pvars.(i) in
        match writer_threads t.prog v with
        | [] -> st_durable  (* never stored: image keeps the initial value *)
        | [ w ] -> (
            match List.assoc_opt w owners with
            | Some m when Array.length m > 0 -> m.(i)
            | _ -> full_mask)
        | _ -> full_mask)
  in
  let sel pred =
    Array.to_list t.pvars
    |> List.filteri (fun i _ -> pred masks.(i))
    |> Vars.of_list
  in
  let multi =
    Array.to_list t.pvars
    |> List.filter (fun v -> List.length (writer_threads t.prog v) > 1)
    |> Vars.of_list
  in
  {
    s_masks =
      Array.to_list (Array.mapi (fun i v -> (v, masks.(i))) t.pvars);
    s_must_durable = sel is_must_durable;
    s_may_dirty = sel has_dirty;
    s_may_pending = sel has_pending;
    s_multi_writer = multi;
  }

let summary_to_json (s : summary) =
  let vars set =
    Obs.Json.List
      (List.map (fun v -> Obs.Json.String v) (Vars.elements set))
  in
  Obs.Json.Obj
    [
      ( "masks",
        Obs.Json.Obj
          (List.map
             (fun (v, m) -> (v, Obs.Json.String (mask_name m)))
             s.s_masks) );
      ("must_durable", vars s.s_must_durable);
      ("may_dirty", vars s.s_may_dirty);
      ("may_pending", vars s.s_may_pending);
      ("multi_writer", vars s.s_multi_writer);
    ]

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "@[<v>%a@,must-durable {%s}@,may-dirty {%s}@]"
    Fmt.(
      list ~sep:cut (fun ppf (v, m) -> pf ppf "%-10s %s" v (mask_name m)))
    s.s_masks
    (String.concat ", " (Vars.elements s.s_must_durable))
    (String.concat ", " (Vars.elements s.s_may_dirty))
