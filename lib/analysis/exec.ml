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
(* The stepper: one seeded schedule, one atomic statement per step *)

type mem = {
  load : Simnvm.Addr.t -> int;
  store : Simnvm.Addr.t -> int -> unit;
  pwb : Simnvm.Addr.t -> unit;
  psync : unit -> unit;
}

let of_memsys m =
  {
    load = Simnvm.Memsys.load m;
    store = Simnvm.Memsys.store m;
    pwb = Simnvm.Memsys.pwb m;
    psync = (fun () -> Simnvm.Memsys.psync m);
  }

let of_refmodel m =
  {
    load = Simnvm.Refmodel.load m;
    store = Simnvm.Refmodel.store m;
    pwb = Simnvm.Refmodel.pwb m;
    psync = (fun () -> Simnvm.Refmodel.psync m);
  }

type status = { all_done : bool; halted : bool; error : string option }

(* [war], when given, sees each access of thread [t] in evaluation order
   and each of its restart points. *)
let steps ?war ~fuel ~sched_seed ~halt_var ~mem ~addr_of ~host
    (p : Ir.program) : status =
  List.iter
    (fun (v, i) ->
      match addr_of v with
      | Some a ->
          (* a zeroed image already holds 0: storing it would dirty a
             line the program itself never writes *)
          if i <> 0 then mem.store a i
      | None -> Hashtbl.replace host v i)
    (p.Ir.persistent @ p.Ir.transient);
  let names = Array.of_list (List.map (fun t -> t.Ir.tname) p.Ir.threads) in
  let work = Array.of_list (List.map (fun t -> t.Ir.body) p.Ir.threads) in
  let owners : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let error = ref None in
  let rec eval t = function
    | Ir.Int n -> n
    | Ir.Var v -> (
        (match war with Some w -> Idempotence.read w ~tid:t v | None -> ());
        match addr_of v with
        | Some a -> mem.load a
        | None -> Hashtbl.find host v)
    | Ir.Binop (op, a, b) ->
        let x = eval t a in
        let y = eval t b in
        apply op x y
  in
  let step t =
    match work.(t) with
    | [] -> ()
    | s :: rest -> (
        work.(t) <- rest;
        match s with
        | Ir.Skip -> ()
        | Ir.Assign (v, e) -> (
            let x = eval t e in
            (match war with
            | Some w -> Idempotence.write w ~tid:t v
            | None -> ());
            match addr_of v with
            | Some a -> mem.store a x
            | None -> Hashtbl.replace host v x)
        | Ir.If (c, a, b) ->
            work.(t) <- (if truthy (eval t c) then a else b) @ rest
        | Ir.While (c, body) ->
            if truthy (eval t c) then work.(t) <- body @ (s :: rest)
        | Ir.Acquire l ->
            (* only picked when [l] is free or already ours *)
            Hashtbl.replace owners l t
        | Ir.Release l ->
            if Hashtbl.find_opt owners l = Some t then Hashtbl.remove owners l
            else begin
              if !error = None then
                error :=
                  Some
                    (Fmt.str "thread %s releases unheld lock L%d" names.(t) l);
              work.(t) <- []
            end
        | Ir.Rp _ -> (
            match war with
            | Some w -> Idempotence.restart_point w ~tid:t
            | None -> ())
        | Ir.Pwb v -> Option.iter mem.pwb (addr_of v)
        | Ir.Psync -> mem.psync ())
  in
  (* A thread whose next statement acquires a lock another thread holds
     is not runnable; the draw picks among the others. *)
  let runnable t =
    match work.(t) with
    | [] -> false
    | Ir.Acquire l :: _ -> (
        match Hashtbl.find_opt owners l with Some o -> o = t | None -> true)
    | _ -> true
  in
  let halted () =
    match Option.bind halt_var (Hashtbl.find_opt host) with
    | Some x -> x <> 0
    | None -> false
  in
  let state = ref ((sched_seed * 0x9E3779B9) + 0x85EBCA6B) in
  let next_int bound =
    state := (!state * 25214903917) + 11;
    let x = (!state lsr 17) land 0x3FFFFFFF in
    x mod bound
  in
  let threads = List.init (Array.length work) Fun.id in
  let rec drive fuel =
    if fuel > 0 && not (halted ()) then
      match List.filter runnable threads with
      | [] -> ()
      | rs ->
          step (List.nth rs (next_int (List.length rs)));
          drive (fuel - 1)
  in
  drive fuel;
  {
    all_done =
      !error = None
      && Array.for_all (function [] -> true | _ :: _ -> false) work;
    halted = halted ();
    error = !error;
  }

let run ?(fuel = 100_000) ?(sched_seed = 0) ?halt_var ~mem ~addr_of p =
  steps ~fuel ~sched_seed ~halt_var ~mem ~addr_of ~host:(Hashtbl.create 16) p

(* ------------------------------------------------------------------ *)
(* Host reference interpreter: the stepper over the host table, with the
   WAR automaton attached *)

type obs = {
  verdicts : (Ir.var * Idempotence.classification) list;
  finals : (Ir.var * int) list;
  completed : bool;
  thread_error : string option;
}

(* Every variable lives in the host table, so only [Psync] reaches this
   memory: persist instructions are volatile no-ops on the host. They
   still cost one scheduler step, like any other atomic statement. *)
let volatile =
  { load = (fun _ -> 0); store = (fun _ _ -> ()); pwb = ignore; psync = ignore }

let interp ?(fuel = 100_000) ?(sched_seed = 0) (p : Ir.program) : obs =
  let war = Idempotence.create () in
  let host = Hashtbl.create 16 in
  let s =
    steps ~war ~fuel ~sched_seed ~halt_var:None ~mem:volatile
      ~addr_of:(fun _ -> None) ~host p
  in
  let declared = Ir.declared p in
  {
    verdicts = List.map (fun v -> (v, Idempotence.verdict war v)) declared;
    finals = List.map (fun v -> (v, Hashtbl.find host v)) declared;
    completed = s.all_done;
    thread_error = s.error;
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
    Respct.Runtime.start r ~on_flushed:(fun next_epoch ->
        Hashtbl.replace snapshots next_epoch (model_snapshot ());
        Hashtbl.replace cursors next_epoch (history_cursors ()));
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
      if !remaining = 0 then Respct.Runtime.stop r
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
           | [] -> Respct.Runtime.stop r
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
