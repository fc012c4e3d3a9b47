module Memsys = Simnvm.Memsys
module Refmodel = Simnvm.Refmodel
module Rng = Simnvm.Rng
module Ir = Analysis.Ir
module Exec = Analysis.Exec

type id = Kernel | Refm

let id_name = function Kernel -> "kernel" | Refm -> "ref"

let id_of_string = function
  | "kernel" -> Some Kernel
  | "ref" -> Some Refm
  | _ -> None

let all_ids = [ Kernel; Refm ]

(* --- planted kernel mutant -------------------------------------------- *)

type mutant = Drop_same_line_order

(* --- memory-system configuration ------------------------------------ *)

let line_words = Simnvm.Addr.default_line_words

type run_cfg = { eadr : bool; ablation : bool; evict_rate : float }

let default_run_cfg = { eadr = false; ablation = false; evict_rate = 0.4 }

let run_cfg_of_variant = function
  | Axiom.Pcso | Axiom.Pcso_lazy -> default_run_cfg
  | Axiom.Eadr -> { default_run_cfg with eadr = true }
  | Axiom.Ablation -> { default_run_cfg with ablation = true }

let mem_config ?mutant ~(cfg : run_cfg) ~seed () =
  let pcso = (not cfg.ablation) && mutant <> Some Drop_same_line_order in
  {
    Memsys.default_config with
    Memsys.nvm_words = 32 * line_words;
    dram_words = 8 * line_words;
    line_words;
    (* one set of four ways: enough associativity that litmus layouts
       (at most 4 lines) never suffer a forced capacity eviction — which
       would make some never-persisted outcomes unreachable and break
       the completeness equality — while keeping the slot count low so
       the spontaneous-eviction lottery (a random slot per draw)
       actually hits the dirty litmus lines often *)
    sets = 1;
    ways = 4;
    evict_rate = cfg.evict_rate;
    seed;
    eadr = cfg.eadr;
    pcso;
  }

let addr_of_loc p l = (Prog.line_of p l * line_words) + Prog.offset_of p l
let line_base lid = lid * line_words

(* The adversarial crash image, sampled: for each litmus line still
   cached-dirty at the crash point, a coin decides whether its in-flight
   write-back completed (pwb: a PCSO-legal whole-line persist — also
   legal under the ablation axioms, which admit every subset). *)
let sample_flushes ~image_seed ~is_dirty ~flush lines =
  let rng = Rng.create (image_seed lxor 0x1ea51f1a) in
  List.iter
    (fun lid ->
      let keep = Rng.bool rng in
      (* draw the coin for every line so the stream is layout-stable *)
      if keep && is_dirty (line_base lid) then flush (line_base lid))
    lines

let outcome_of ~persisted p =
  List.map (fun l -> persisted (addr_of_loc p l)) (Prog.locs p)

(* --- the compile-and-step path both worlds run ---------------------- *)

let halt_var = "__halt"

let compile (p : Prog.t) : Ir.program =
  let stmt = function
    | Prog.St (l, v) -> Ir.Assign (l, Ir.Int v)
    | Prog.Ld (l, r) -> Ir.Assign (r, Ir.Var l)
    | Prog.Pwb l -> Ir.Pwb l
    | Prog.Psync -> Ir.Psync
    | Prog.Faa (l, k) ->
        (* a single atomic Assign: the stepper executes one statement
           per scheduler step, which preserves RMW atomicity *)
        Ir.Assign (l, Ir.Binop (Ir.Add, Ir.Var l, Ir.Int k))
    | Prog.Crash -> Ir.Assign (halt_var, Ir.Int 1)
  in
  {
    Ir.pname = p.Prog.name;
    persistent = List.map (fun l -> (l, 0)) (Prog.locs p);
    transient =
      List.map (fun r -> (r, 0)) (Prog.regs p)
      @ (if Prog.has_crash p then [ (halt_var, 0) ] else []);
    threads =
      List.mapi
        (fun i ops -> { Ir.tname = Fmt.str "t%d" i; body = List.map stmt ops })
        p.Prog.threads;
  }

let drive ~sched_seed mem p =
  let locs = Prog.locs p in
  Exec.run ~sched_seed ~halt_var ~mem
    ~addr_of:(fun v ->
      if List.mem v locs then Some (addr_of_loc p v) else None)
    (compile p)

(* --- the two worlds: the flat kernel and the reference model -------- *)

let run ?mutant ~world ?(cfg = default_run_cfg) ~sched_seed ~image_seed p =
  let config = mem_config ?mutant ~cfg ~seed:image_seed () in
  let mem, is_dirty, crash, persisted =
    match world with
    | Kernel ->
        let m = Memsys.create config in
        ( Exec.of_memsys m,
          Memsys.is_cached_dirty m,
          (fun () -> Memsys.crash m),
          Memsys.persisted m )
    | Refm ->
        let m = Refmodel.create config in
        ( Exec.of_refmodel m,
          Refmodel.is_cached_dirty m,
          (fun () -> Refmodel.crash m),
          Refmodel.persisted m )
  in
  ignore (drive ~sched_seed mem p);
  sample_flushes ~image_seed ~is_dirty ~flush:mem.Exec.pwb (Prog.lines p);
  crash ();
  outcome_of ~persisted p

(* --- exhaustive reference exploration (completeness oracle) ---------- *)

(* Systematic enumeration of every interleaving with every placement of
   spontaneous write-backs, against the reference model with random
   eviction off: each path replays its decision prefix on a fresh model
   (the model has no snapshot hook), branching on thread steps and on
   pwb of any currently-dirty litmus line — an inserted pwb IS a
   spontaneous flush under the eager-clwb substrate. Flush decisions
   stay available after the last instruction (terminal states record
   their outcome and keep branching), which covers every subset of
   residual dirty lines. Termination: ops are finite and a flush
   strictly cleans a line, so paths are finite. *)

type dec = Dstep of int | Dflush of int

let exhaustive_ref ?(max_paths = 200_000) (p : Prog.t) :
    Axiom.Outcomes.t option =
  let cfg = { default_run_cfg with evict_rate = 0.0 } in
  let bodies = Array.of_list (List.map Array.of_list p.Prog.threads) in
  let nt = Array.length bodies in
  let outcomes = ref Axiom.Outcomes.empty in
  let paths = ref 0 in
  let capped = ref false in
  let addr l = addr_of_loc p l in
  let replay decs =
    let m = Refmodel.create (mem_config ~cfg ~seed:1 ()) in
    let pcs = Array.make nt 0 in
    let halted = ref false in
    let exec_op t =
      (match bodies.(t).(pcs.(t)) with
      | Prog.St (l, v) -> Refmodel.store m (addr l) v
      | Prog.Ld (l, _) -> ignore (Refmodel.load m (addr l))
      | Prog.Pwb l -> Refmodel.pwb m (addr l)
      | Prog.Psync -> Refmodel.psync m
      | Prog.Faa (l, k) ->
          Refmodel.store m (addr l) (Refmodel.load m (addr l) + k)
      | Prog.Crash -> halted := true);
      pcs.(t) <- pcs.(t) + 1
    in
    List.iter
      (function
        | Dstep t -> exec_op t
        | Dflush lid -> Refmodel.pwb m (line_base lid))
      decs;
    (m, pcs, !halted)
  in
  let rec explore decs =
    if not !capped then begin
      incr paths;
      if !paths > max_paths then capped := true
      else begin
        let m, pcs, halted = replay decs in
        let terminal =
          halted
          ||
          let ok = ref true in
          Array.iteri
            (fun t pc -> if pc < Array.length bodies.(t) then ok := false)
            pcs;
          !ok
        in
        if terminal then
          outcomes :=
            Axiom.Outcomes.add
              (outcome_of ~persisted:(Refmodel.persisted m) p)
              !outcomes;
        if not halted then
          Array.iteri
            (fun t body ->
              if pcs.(t) < Array.length body then explore (decs @ [ Dstep t ]))
            bodies;
        List.iter
          (fun lid ->
            if Refmodel.is_cached_dirty m (line_base lid) then
              explore (decs @ [ Dflush lid ]))
          (Prog.lines p)
      end
    end
  in
  explore [];
  if !capped then None else Some !outcomes
