(* Flush-discipline lint over the Persistate facts.

   Only programs that use explicit flushes anywhere are checked: the
   runtime-checkpointed corpus programs never issue Pwb/Psync (the
   ResPCT runtime flushes for them at epoch seal), and flagging their
   stores as unflushed would re-litigate what the checkpoint already
   guarantees. A single Pwb or Psync in any thread opts the whole
   program into the explicit-flush discipline.

   The cross-thread mode composes with a must-held lockset analysis:
   when one thread stores a persistent variable and a different thread
   flushes its line with no lock common to both site sets, the flusher
   races the store — its pwb may persist either the old or the new
   value, so any durability reasoning that pairs the two is unsound
   (a persist-order race, invisible to the per-thread lattice). *)

module Locks = Dataflow.Locks

type kind =
  | Missing_pwb_at_rp
      (* persistent var may be Dirty at a restart point: rollback could
         resurrect a store the image never received *)
  | Missing_psync_publish
      (* persistent store while another line's pwb is still unfenced:
         the publish can persist before the data it depends on *)
  | Redundant_pwb
      (* no path reaches this pwb with anything dirty on its line *)
  | Psync_no_pending
      (* no path reaches this psync with an issued pwb to retire *)
  | Torn_cross_line
      (* >=2 distinct lines may be dirty together at program exit: a
         crash tears the logical record across line boundaries *)
  | Persist_order_race
      (* store and flush of one line in different threads with no
         common lock *)

let kind_name = function
  | Missing_pwb_at_rp -> "missing-pwb-before-restart-point"
  | Missing_psync_publish -> "missing-psync-before-dependent-publish"
  | Redundant_pwb -> "redundant-pwb"
  | Psync_no_pending -> "psync-with-no-pending"
  | Torn_cross_line -> "cross-line-torn-logging"
  | Persist_order_race -> "persist-order-race"

let is_error = function
  | Missing_pwb_at_rp | Missing_psync_publish -> true
  | Redundant_pwb | Psync_no_pending | Torn_cross_line
  | Persist_order_race ->
      false

type finding = {
  fl_kind : kind;
  fl_thread : string option;
  fl_var : Ir.var option;
  fl_vars : Ir.var list;  (** other involved variables, sorted *)
  fl_rp : int option;
  fl_site : string option;
  fl_message : string;
}

let finding ?thread ?var ?(vars = []) ?rp ?site fl_kind fl_message =
  {
    fl_kind;
    fl_thread = thread;
    fl_var = var;
    fl_vars = vars;
    fl_rp = rp;
    fl_site = site;
    fl_message;
  }

let uses_flushes (p : Ir.program) =
  let rec stmt = function
    | Ir.Pwb _ | Ir.Psync -> true
    | Ir.If (_, a, b) -> List.exists stmt a || List.exists stmt b
    | Ir.While (_, b) -> List.exists stmt b
    | _ -> false
  in
  List.exists (fun (t : Ir.thread) -> List.exists stmt t.Ir.body) p.Ir.threads

(* --- per-thread lattice walk ----------------------------------------- *)

let thread_findings ps (tf : Persistate.thread_facts) =
  let t = tf.Persistate.tf_thread in
  let pvars = Array.of_list (Persistate.pvars ps) in
  let masked f pred =
    Array.to_list pvars
    |> List.filteri (fun i _ -> pred (Persistate.mask f i))
  in
  Array.to_list tf.Persistate.tf_cfg.Ir.nodes
  |> List.concat_map (fun (n : Ir.node) ->
         let inf = tf.Persistate.tf_sol.Dataflow.inf.(n.Ir.id) in
         if Array.length inf = 0 then [] (* unreachable *)
         else
           match n.Ir.kind with
           | Ir.Node_rp r ->
               List.map
                 (fun v ->
                   finding ~thread:t ~var:v ~rp:r ~site:n.Ir.path
                     Missing_pwb_at_rp
                     (Fmt.str
                        "restart point %d in thread %s at %s can be \
                         reached with persistent %s stored but never \
                         pwb'd; rollback would replay a store the image \
                         never received"
                        r t n.Ir.path v))
                 (masked inf Persistate.has_dirty)
           | Ir.Node_assign (w, _)
             when Persistate.var_index ps w <> None ->
               let wl = Persistate.line_of ps w in
               let pend =
                 masked inf Persistate.has_pending
                 |> List.filter (fun v ->
                        v <> w && Persistate.line_of ps v <> wl)
               in
               if pend = [] then []
               else
                 [
                   finding ~thread:t ~var:w ~vars:pend ~site:n.Ir.path
                     Missing_psync_publish
                     (Fmt.str
                        "thread %s publishes persistent %s at %s while \
                         {%s} still has an unfenced pwb; without a psync \
                         the publish can persist first"
                        t w n.Ir.path (String.concat ", " pend));
                 ]
           | Ir.Node_pwb v ->
               let lid = Persistate.line_of ps v in
               let dirty_mate =
                 Array.to_list pvars
                 |> List.exists (fun w ->
                        Persistate.line_of ps w = lid
                        &&
                        match Persistate.var_index ps w with
                        | Some i -> Persistate.has_dirty (Persistate.mask inf i)
                        | None -> false)
               in
               if dirty_mate then []
               else
                 [
                   finding ~thread:t ~var:v ~site:n.Ir.path Redundant_pwb
                     (Fmt.str
                        "pwb of %s in thread %s at %s is redundant on \
                         every path: nothing on its line can be dirty \
                         here"
                        v t n.Ir.path);
                 ]
           | Ir.Node_psync ->
               let pending = masked inf Persistate.has_pending in
               if pending <> [] then []
               else
                 [
                   finding ~thread:t ~site:n.Ir.path Psync_no_pending
                     (Fmt.str
                        "psync in thread %s at %s has no issued pwb to \
                         retire on any path"
                        t n.Ir.path);
                 ]
           | Ir.Exit ->
               let dirty = masked inf Persistate.has_dirty in
               let lines =
                 List.sort_uniq compare
                   (List.map (Persistate.line_of ps) dirty)
               in
               if List.length lines < 2 then []
               else
                 [
                   finding ~thread:t ~vars:dirty Torn_cross_line
                     (Fmt.str
                        "thread %s can exit with {%s} dirty across %d \
                         cache lines; a crash persists an arbitrary \
                         subset of the lines, tearing the record"
                        t
                        (String.concat ", " dirty)
                        (List.length lines));
                 ]
           | _ -> [])

(* --- cross-thread persist-order races -------------------------------- *)

(* Must-held locksets per node: the Lockset module exposes summaries but
   not raw facts, and the transfer here is three lines. *)
module LMust = Dataflow.MustSet (Locks)
module LSolver = Dataflow.Make (LMust)

let must_held_sol cfg =
  LSolver.forward cfg ~init:(LMust.Known Locks.empty)
    ~transfer:(fun (n : Ir.node) f ->
      match (n.Ir.kind, f) with
      | Ir.Node_acquire l, LMust.Known s -> LMust.Known (Locks.add l s)
      | Ir.Node_release l, LMust.Known s -> LMust.Known (Locks.remove l s)
      | _ -> f)

let race_findings ps (p : Ir.program) =
  let per_thread =
    List.map
      (fun (th : Ir.thread) ->
        let cfg = Ir.cfg_of_thread th in
        (th.Ir.tname, cfg, must_held_sol cfg))
      p.Ir.threads
  in
  (* (thread, must-held lockset intersection) over matching sites *)
  let sites select =
    List.filter_map
      (fun (tname, cfg, (sol : LMust.t Dataflow.solution)) ->
        let acc = ref None in
        Array.iter
          (fun (n : Ir.node) ->
            if select n then
              let held = LMust.known sol.Dataflow.inf.(n.Ir.id) in
              acc :=
                Some
                  (match !acc with
                  | None -> held
                  | Some s -> Locks.inter s held))
          cfg.Ir.nodes;
        Option.map (fun s -> (tname, s)) !acc)
      per_thread
  in
  Persistate.pvars ps
  |> List.concat_map (fun v ->
         let lid = Persistate.line_of ps v in
         let writers =
           sites (fun n ->
               match n.Ir.kind with
               | Ir.Node_assign (w, _) -> w = v
               | _ -> false)
         in
         let flushers =
           sites (fun n ->
               match n.Ir.kind with
               | Ir.Node_pwb w -> Persistate.line_of ps w = lid
               | _ -> false)
         in
         List.concat_map
           (fun (tw, lw) ->
             List.filter_map
               (fun (tf, lf) ->
                 if tw = tf || not (Locks.is_empty (Locks.inter lw lf))
                 then None
                 else
                   Some
                     (finding ~thread:tw ~var:v Persist_order_race
                        (Fmt.str
                           "persist-order race on %s: thread %s stores \
                            it while thread %s flushes its line with no \
                            common lock; the flush can persist either \
                            value"
                           v tw tf)))
               flushers)
           writers)

(* --- driver ----------------------------------------------------------- *)

let run ?lines (p : Ir.program) : finding list =
  if not (uses_flushes p) then []
  else
    let ps = Persistate.create ?lines p in
    let per_thread =
      Persistate.analyse ps |> List.concat_map (thread_findings ps)
    in
    per_thread @ race_findings ps p

(* --- planted mutants -------------------------------------------------- *)

let rec map_stmts f body =
  List.concat_map
    (fun s ->
      match s with
      | Ir.If (c, a, b) -> f (Ir.If (c, map_stmts f a, map_stmts f b))
      | Ir.While (c, b) -> f (Ir.While (c, map_stmts f b))
      | s -> f s)
    body

let on_threads g (p : Ir.program) =
  {
    p with
    Ir.threads =
      List.map
        (fun (t : Ir.thread) -> { t with Ir.body = g t.Ir.body })
        p.Ir.threads;
  }

let strip_psync p =
  on_threads
    (map_stmts (function Ir.Psync -> [] | s -> [ s ]))
    { p with Ir.pname = p.Ir.pname ^ "+strip-psync" }

let inject_redundant_pwb p =
  on_threads
    (map_stmts (function
      | Ir.Pwb v -> [ Ir.Pwb v; Ir.Pwb v ]
      | s -> [ s ]))
    { p with Ir.pname = p.Ir.pname ^ "+redundant-pwb" }

type mutant = Strip_psync | Inject_redundant_pwb

let mutants = [ Strip_psync; Inject_redundant_pwb ]

let mutant_name = function
  | Strip_psync -> "strip-psync"
  | Inject_redundant_pwb -> "redundant-pwb"

let plant = function
  | Strip_psync -> strip_psync
  | Inject_redundant_pwb -> inject_redundant_pwb
