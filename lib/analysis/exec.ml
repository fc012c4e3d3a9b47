module Vars = Dataflow.Vars

let truthy n = n <> 0

let apply op x y =
  match op with
  | Ir.Add -> x + y
  | Ir.Sub -> x - y
  | Ir.Mul -> x * y
  | Ir.Div -> if y = 0 then 0 else x / y
  | Ir.Mod -> if y = 0 then 0 else x mod y
  | Ir.Eq -> if x = y then 1 else 0
  | Ir.Ne -> if x <> y then 1 else 0
  | Ir.Lt -> if x < y then 1 else 0
  | Ir.Le -> if x <= y then 1 else 0
  | Ir.And -> if truthy x && truthy y then 1 else 0
  | Ir.Or -> if truthy x || truthy y then 1 else 0

(* ------------------------------------------------------------------ *)
(* Host reference interpreter *)

type obs = {
  war : Vars.t;
  segments : (string * Idempotence.access list list) list;
  finals : (Ir.var * int) list;
  completed : bool;
  thread_error : string option;
}

(* The section 3.3.2 state machine, applied to the executed path: a
   region-local per-variable record of whether the first access so far
   was a read. *)
type region_state = Read_first | Written

type ithread = {
  it_name : string;
  mutable work : Ir.stmt list;
  mutable blocked_on : int option;
  region : (Ir.var, region_state) Hashtbl.t;
  mutable cur : Idempotence.access list;  (** reversed *)
  mutable segs : Idempotence.access list list;  (** reversed *)
}

let interp ?(fuel = 100_000) ?(sched_seed = 0) (p : Ir.program) : obs =
  let store = Hashtbl.create 16 in
  List.iter
    (fun (v, i) -> Hashtbl.replace store v i)
    (p.Ir.persistent @ p.Ir.transient);
  let threads =
    List.map
      (fun (t : Ir.thread) ->
        {
          it_name = t.Ir.tname;
          work = t.Ir.body;
          blocked_on = None;
          region = Hashtbl.create 8;
          cur = [];
          segs = [];
        })
      p.Ir.threads
  in
  let owners : (int, ithread) Hashtbl.t = Hashtbl.create 4 in
  let war = ref Vars.empty in
  let error = ref None in
  let record_read t v =
    t.cur <- Idempotence.Read v :: t.cur;
    if not (Hashtbl.mem t.region v) then Hashtbl.replace t.region v Read_first
  in
  let record_write t v =
    t.cur <- Idempotence.Write v :: t.cur;
    (match Hashtbl.find_opt t.region v with
    | Some Read_first -> war := Vars.add v !war
    | Some Written | None -> ());
    Hashtbl.replace t.region v Written
  in
  let rec eval t = function
    | Ir.Int n -> n
    | Ir.Var v ->
        record_read t v;
        Hashtbl.find store v
    | Ir.Binop (op, a, b) ->
        let x = eval t a in
        let y = eval t b in
        apply op x y
  in
  let flush_region t =
    t.segs <- List.rev t.cur :: t.segs;
    t.cur <- [];
    Hashtbl.reset t.region
  in
  (* Execute one atomic step of [t]; assignments evaluate their RHS and
     write in one step, mirroring a single IR CFG node. *)
  let step t =
    match t.work with
    | [] -> ()
    | s :: rest -> (
        match s with
        | Ir.Skip -> t.work <- rest
        | Ir.Assign (v, e) ->
            let x = eval t e in
            record_write t v;
            Hashtbl.replace store v x;
            t.work <- rest
        | Ir.If (c, a, b) ->
            let x = eval t c in
            t.work <- (if truthy x then a else b) @ rest
        | Ir.While (c, body) ->
            let x = eval t c in
            if truthy x then t.work <- body @ (s :: rest) else t.work <- rest
        | Ir.Acquire l -> (
            match Hashtbl.find_opt owners l with
            | Some o when o != t -> t.blocked_on <- Some l
            | Some _ -> t.work <- rest (* re-entrant: no-op *)
            | None ->
                Hashtbl.replace owners l t;
                t.work <- rest)
        | Ir.Release l -> (
            match Hashtbl.find_opt owners l with
            | Some o when o == t ->
                Hashtbl.remove owners l;
                t.work <- rest
            | Some _ | None ->
                if !error = None then
                  error :=
                    Some
                      (Fmt.str "thread %s releases unheld lock L%d" t.it_name
                         l);
                t.work <- [])
        | Ir.Rp _ ->
            flush_region t;
            t.work <- rest
        | Ir.Pwb _ | Ir.Psync ->
            (* Persist instructions are volatile no-ops: they order
               write-back, which the host store does not model. They still
               cost one scheduler step, like any other atomic statement. *)
            t.work <- rest)
  in
  (* Deterministic seeded scheduler: splitmix-style stream picking among
     runnable threads each step. *)
  let state = ref (sched_seed * 0x9E3779B9 + 0x85EBCA6B) in
  let next_int bound =
    state := (!state * 25214903917) + 11;
    let x = (!state lsr 17) land 0x3FFFFFFF in
    x mod bound
  in
  let fuel = ref fuel in
  let runnable () =
    List.filter
      (fun t ->
        t.work <> []
        &&
        match t.blocked_on with
        | None -> true
        | Some l -> (
            match Hashtbl.find_opt owners l with
            | Some o -> o == t
            | None -> true))
      threads
  in
  let rec drive () =
    if !fuel > 0 then
      match runnable () with
      | [] -> ()
      | rs ->
          let t = List.nth rs (next_int (List.length rs)) in
          (match t.blocked_on with
          | Some l when not (Hashtbl.mem owners l) ->
              Hashtbl.replace owners l t;
              t.blocked_on <- None;
              t.work <- (match t.work with _ :: rest -> rest | [] -> [])
          | Some _ -> t.blocked_on <- None (* already owner *)
          | None -> step t);
          decr fuel;
          drive ()
  in
  drive ();
  List.iter flush_region threads;
  {
    war = !war;
    segments = List.map (fun t -> (t.it_name, List.rev t.segs)) threads;
    finals =
      List.map
        (fun (v, _) -> (v, Hashtbl.find store v))
        (p.Ir.persistent @ p.Ir.transient);
    completed = List.for_all (fun t -> t.work = []) threads;
    thread_error = !error;
  }

(* ------------------------------------------------------------------ *)
(* Memory-backed stepper: the host interpreter's scheduler and statement
   semantics, with persistent variables living in a Simnvm.Memsys at
   caller-chosen addresses. This is the "analyzer IR semantics over real
   persistent memory" world the litmus differential harness drives:
   Pwb/Psync hit the memory system, and the caller crashes [mem] and
   reads the persisted image afterwards. *)

type mem_obs = {
  mo_finals : (Ir.var * int) list;  (** volatile (coherent) final values *)
  mo_halted : bool;  (** stopped because [halt_var] became nonzero *)
  mo_completed : bool;  (** every thread ran to completion within fuel *)
}

let run_mem ?(fuel = 100_000) ?(sched_seed = 0) ?halt_var
    ~(mem : Simnvm.Memsys.t) ~(addr_of : Ir.var -> Simnvm.Addr.t option)
    (p : Ir.program) : mem_obs =
  let transient = Hashtbl.create 16 in
  let read v =
    match addr_of v with
    | Some a -> Simnvm.Memsys.load mem a
    | None -> Hashtbl.find transient v
  in
  let write v x =
    match addr_of v with
    | Some a -> Simnvm.Memsys.store mem a x
    | None -> Hashtbl.replace transient v x
  in
  List.iter
    (fun (v, i) ->
      match addr_of v with
      | Some a ->
          (* Avoid gratuitously dirtying the line when the zeroed image
             already holds the initial value (litmus programs start all
             locations at 0, and an init store would widen the crash-image
             nondeterminism beyond what the program itself performs). *)
          if Simnvm.Memsys.peek mem a <> i then Simnvm.Memsys.store mem a i
      | None -> Hashtbl.replace transient v i)
    (p.Ir.persistent @ p.Ir.transient);
  let halted () =
    match halt_var with
    | None -> false
    | Some v -> ( try read v <> 0 with Not_found -> false)
  in
  let threads =
    List.map (fun (t : Ir.thread) -> (t.Ir.tname, ref t.Ir.body)) p.Ir.threads
  in
  let owners : (int, Ir.stmt list ref) Hashtbl.t = Hashtbl.create 4 in
  let rec eval = function
    | Ir.Int n -> n
    | Ir.Var v -> read v
    | Ir.Binop (op, a, b) ->
        let x = eval a in
        let y = eval b in
        apply op x y
  in
  let step work =
    match !work with
    | [] -> ()
    | s :: rest -> (
        match s with
        | Ir.Skip -> work := rest
        | Ir.Assign (v, e) ->
            let x = eval e in
            write v x;
            work := rest
        | Ir.If (c, a, b) ->
            work := (if truthy (eval c) then a else b) @ rest
        | Ir.While (c, body) ->
            if truthy (eval c) then work := body @ (s :: rest)
            else work := rest
        | Ir.Acquire l -> (
            match Hashtbl.find_opt owners l with
            | Some o when o != work -> () (* blocked; retried when free *)
            | Some _ -> work := rest
            | None ->
                Hashtbl.replace owners l work;
                work := rest)
        | Ir.Release l ->
            (match Hashtbl.find_opt owners l with
            | Some o when o == work -> Hashtbl.remove owners l
            | Some _ | None -> ());
            work := rest
        | Ir.Rp _ -> work := rest
        | Ir.Pwb v -> (
            (match addr_of v with
            | Some a -> Simnvm.Memsys.pwb mem a
            | None -> ());
            work := rest)
        | Ir.Psync ->
            Simnvm.Memsys.psync mem;
            work := rest)
  in
  let state = ref ((sched_seed * 0x9E3779B9) + 0x85EBCA6B) in
  let next_int bound =
    state := (!state * 25214903917) + 11;
    let x = (!state lsr 17) land 0x3FFFFFFF in
    x mod bound
  in
  let runnable () =
    List.filter
      (fun (_, work) ->
        match !work with
        | [] -> false
        | Ir.Acquire l :: _ -> (
            match Hashtbl.find_opt owners l with
            | Some o -> o == work
            | None -> true)
        | _ -> true)
      threads
  in
  let fuel = ref fuel in
  let rec drive () =
    if !fuel > 0 && not (halted ()) then
      match runnable () with
      | [] -> ()
      | rs ->
          let _, work = List.nth rs (next_int (List.length rs)) in
          step work;
          decr fuel;
          drive ()
  in
  drive ();
  {
    mo_finals =
      List.filter_map
        (fun (v, _) ->
          match try Some (read v) with Not_found -> None with
          | Some x -> Some (v, x)
          | None -> None)
        (p.Ir.persistent @ p.Ir.transient);
    mo_halted = halted ();
    mo_completed = List.for_all (fun (_, w) -> !w = []) threads;
  }

(* ------------------------------------------------------------------ *)
(* Simulator world: run the program on Simsched/Respct.Runtime under an
   instrumentation plan, with the last-checkpoint durability oracle. *)

type world = {
  w_mem : Simnvm.Memsys.t;
  w_bus : Simnvm.Event.bus;
  w_run : unit -> unit;
  w_completed : unit -> int;
  w_recover_check : unit -> (unit, string) result;
  w_var_addrs : unit -> (Ir.var * Simnvm.Addr.t) list;
}

let mem_cfg ~mem_seed ~pcso =
  {
    Simnvm.Memsys.default_config with
    Simnvm.Memsys.nvm_words = 1 lsl 16;
    dram_words = 1 lsl 14;
    sets = 64;
    ways = 4;
    seed = mem_seed;
    evict_rate = 0.0;
    pcso;
  }

let rt_cfg =
  {
    Respct.Runtime.period_ns = 400.0;
    flusher_pool = 2;
    mode = Respct.Runtime.Full;
    max_threads = 8;
    registry_per_slot = 256;
    integrity = false;
    pipeline = false;
  }

type binding = Cell of Respct.Incll.cell | Raw of Simnvm.Addr.t

let sim_world ?(sched_seed = 1) ?(mem_seed = 1) ?(pcso = true)
    ?(strip_log = []) ?oracle_log ~(plan : Placement.plan) (p : Ir.program) :
    world =
  let mem = Simnvm.Memsys.create (mem_cfg ~mem_seed ~pcso) in
  let sched = Simsched.Scheduler.create ~seed:sched_seed () in
  let env = Simsched.Env.make mem sched in
  let rt = ref None in
  let created_epoch = ref max_int in
  let completed = ref 0 in
  let remaining = ref (List.length p.Ir.threads) in
  (* Ground truth for the oracle: the variables the correct plan logs.
     A stripped variable still *ought* to roll back exactly — that is
     what makes the mutant detectable. *)
  let oracle_log = Option.value oracle_log ~default:plan.Placement.log in
  let logged v =
    Vars.mem v plan.Placement.log && not (List.mem v strip_log)
  in
  let tracked v =
    Vars.mem v plan.Placement.track
    || (Vars.mem v plan.Placement.log && List.mem v strip_log)
  in
  let model = Hashtbl.create 16 in
  let history : (Ir.var, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let snapshots = Hashtbl.create 8 in
  let cursors = Hashtbl.create 8 in
  let bindings : (Ir.var, binding) Hashtbl.t = Hashtbl.create 16 in
  let transient = Hashtbl.create 16 in
  let model_snapshot () =
    List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) model [])
  in
  let history_cursors () =
    List.sort compare
      (Hashtbl.fold (fun v h a -> (v, List.length !h) :: a) history [])
  in
  let max_lock =
    let rec go m = function
      | Ir.Acquire l | Ir.Release l -> max m l
      | Ir.If (_, a, b) -> List.fold_left go (List.fold_left go m a) b
      | Ir.While (_, b) -> List.fold_left go m b
      | Ir.Assign _ | Ir.Rp _ | Ir.Pwb _ | Ir.Psync | Ir.Skip -> m
    in
    List.fold_left
      (fun m (t : Ir.thread) -> List.fold_left go m t.Ir.body)
      0 p.Ir.threads
  in
  let mutexes =
    Array.init (max_lock + 1) (fun i ->
        Simsched.Mutex.create ~name:(Fmt.str "L%d" i) ())
  in
  let run () =
    let r = Respct.Runtime.create ~cfg:rt_cfg env in
    rt := Some r;
    let finished = ref false in
    ignore
      (Simsched.Scheduler.spawn ~name:"ckpt" sched (fun () ->
           let rec loop at =
             if not !finished then begin
               Simsched.Scheduler.sleep_until sched at;
               if not !finished then begin
                 Respct.Runtime.run_checkpoint r
                   ~on_flushed:(fun next_epoch ->
                     Hashtbl.replace snapshots next_epoch (model_snapshot ());
                     Hashtbl.replace cursors next_epoch (history_cursors ()));
                 loop (at +. rt_cfg.Respct.Runtime.period_ns)
               end
             end
           in
           loop rt_cfg.Respct.Runtime.period_ns));
    let read slot v =
      match Hashtbl.find_opt bindings v with
      | Some (Cell c) -> Respct.Runtime.read r ~slot c
      | Some (Raw a) -> Simsched.Env.load env a
      | None -> Hashtbl.find transient v
    in
    let write slot v x =
      match Hashtbl.find_opt bindings v with
      | Some (Cell c) ->
          Hashtbl.replace model v x;
          (Hashtbl.find history v) := x :: !(Hashtbl.find history v);
          Respct.Runtime.update r ~slot c x
      | Some (Raw a) ->
          Hashtbl.replace model v x;
          (Hashtbl.find history v) := x :: !(Hashtbl.find history v);
          Simsched.Env.store env a x;
          if tracked v then Respct.Runtime.add_modified r ~slot a
      | None -> Hashtbl.replace transient v x
    in
    let rec eval slot = function
      | Ir.Int n -> n
      | Ir.Var v -> read slot v
      | Ir.Binop (op, a, b) ->
          let x = eval slot a in
          let y = eval slot b in
          apply op x y
    in
    let rec exec_stmts slot stmts = List.iter (exec_stmt slot) stmts
    and exec_stmt slot s =
      (* Every statement costs a little virtual time so transient-only
         control flow still advances the clock and yields to the
         coordinator. *)
      Simsched.Env.compute env 25.0;
      match s with
      | Ir.Skip -> ()
      | Ir.Assign (v, e) -> write slot v (eval slot e)
      | Ir.If (c, a, b) ->
          if truthy (eval slot c) then exec_stmts slot a else exec_stmts slot b
      | Ir.While (c, body) ->
          let rec loop () =
            if truthy (eval slot c) then begin
              exec_stmts slot body;
              Simsched.Env.compute env 25.0;
              loop ()
            end
          in
          loop ()
      | Ir.Acquire l -> Simsched.Mutex.lock sched mutexes.(l)
      | Ir.Release l -> Simsched.Mutex.unlock sched mutexes.(l)
      | Ir.Rp id ->
          incr completed;
          Respct.Runtime.rp r ~slot id
      | Ir.Pwb v -> (
          match Hashtbl.find_opt bindings v with
          | Some (Cell c) -> Simsched.Env.pwb env (Respct.Incll.record c)
          | Some (Raw a) -> Simsched.Env.pwb env a
          | None -> () (* transient: nothing to persist *))
      | Ir.Psync -> Simsched.Env.psync env
    in
    let worker slot (t : Ir.thread) () =
      exec_stmts slot t.Ir.body;
      decr remaining;
      if !remaining = 0 then finished := true
    in
    ignore
      (Respct.Runtime.spawn r ~slot:0 (fun _ctx ->
           List.iter
             (fun (v, init) ->
               Hashtbl.replace model v init;
               Hashtbl.replace history v (ref [ init ]);
               if logged v then
                 Hashtbl.replace bindings v
                   (Cell (Respct.Runtime.alloc_incll r ~slot:0 init))
               else begin
                 let a =
                   Respct.Runtime.alloc_raw ~line_start:true r ~slot:0
                     ~words:1
                 in
                 Simsched.Env.store env a init;
                 if tracked v then Respct.Runtime.add_modified r ~slot:0 a;
                 Hashtbl.replace bindings v (Raw a)
               end)
             p.Ir.persistent;
           List.iter
             (fun (v, init) -> Hashtbl.replace transient v init)
             p.Ir.transient;
           created_epoch := Respct.Runtime.epoch r;
           List.iteri
             (fun i t ->
               if i > 0 then
                 ignore
                   (Respct.Runtime.spawn ~name:t.Ir.tname r ~slot:i
                      (fun _ctx -> worker i t ())))
             p.Ir.threads;
           match p.Ir.threads with
           | [] -> finished := true
           | t0 :: _ -> worker 0 t0 ()));
    match Simsched.Scheduler.run sched with
    | Simsched.Scheduler.Completed | Simsched.Scheduler.Crash_interrupt _ ->
        ()
  in
  let recover_check () =
    match !rt with
    | None -> Ok ()
    | Some r -> (
        let rep = Respct.Recovery.run ~layout:(Respct.Runtime.layout r) mem in
        let failed = rep.Respct.Recovery.failed_epoch in
        if failed <= !created_epoch then Ok ()
        else
          match Hashtbl.find_opt snapshots failed with
          | None -> Ok () (* no checkpoint covered this epoch *)
          | Some expected ->
              let cursor =
                Option.value ~default:[] (Hashtbl.find_opt cursors failed)
              in
              let check_var acc (v, want) =
                match acc with
                | Error _ -> acc
                | Ok () -> (
                    match Hashtbl.find_opt bindings v with
                    | Some (Cell c) ->
                        let got = Respct.Incll.Persisted.record mem c in
                        if got = want then Ok ()
                        else
                          Error
                            (Fmt.str
                               "epoch %d: logged %s should recover %d, image \
                                has %d"
                               failed v want got)
                    | Some (Raw a) ->
                        let got = Simnvm.Memsys.persisted mem a in
                        if Vars.mem v oracle_log then
                          (* A variable the 3.3.2 rule requires logged:
                             recovery must restore the checkpoint value
                             exactly, and without the log it cannot. *)
                          if got = want then Ok ()
                          else
                            Error
                              (Fmt.str
                                 "epoch %d: WAR variable %s should recover \
                                  %d, image has %d (logging stripped?)"
                                 failed v want got)
                        else
                          (* RAW-only: re-execution overwrites before
                             reading, so any value this epoch wrote (or
                             the checkpoint value) is legal. *)
                          let written =
                            match Hashtbl.find_opt history v with
                            | None -> []
                            | Some h ->
                                let l = !h in
                                let cut =
                                  match List.assoc_opt v cursor with
                                  | Some c -> List.length l - c
                                  | None -> 0
                                in
                                List.filteri (fun i _ -> i < cut) l
                          in
                          if got = want || List.mem got written then Ok ()
                          else
                            Error
                              (Fmt.str
                                 "epoch %d: raw %s has %d, not the \
                                  checkpoint value %d nor any epoch-%d \
                                  write"
                                 failed v got want failed)
                    | None -> Ok ())
              in
              List.fold_left check_var (Ok ()) expected)
  in
  {
    w_mem = mem;
    w_bus = Simsched.Scheduler.trace_bus sched;
    w_run = run;
    w_completed = (fun () -> !completed);
    w_recover_check = recover_check;
    w_var_addrs =
      (fun () ->
        Hashtbl.fold
          (fun v b acc ->
            match b with
            | Cell c -> (v, Respct.Incll.record c) :: acc
            | Raw a -> (v, a) :: acc)
          bindings []
        |> List.sort compare);
  }
