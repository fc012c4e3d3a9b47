(* Execution environment binding a memory backend to a scheduler.

   All simulated programs access memory exclusively through these wrappers:
   latencies flow into the running thread's virtual clock (the charge hook is
   installed by [make]) and every access is a preemption point, so the
   scheduler can interleave threads as real hardware would.

   The memory side is a backend behind the Simnvm.Backend seam — the
   simulator (Backend.of_memsys) or the mmap'd-file Filemem — and every
   wrapper calls its record the same way. Sim-only call sites keep using
   [mem]; backend-generic code uses [backend].

   [make] couples the memory to the world's bus (Scheduler.trace_bus), so a
   world has one event stream. The memory publishes every access itself;
   Env publishes only what the memory cannot see: the Rmw marker closing
   an atomic CAS/FAA, and compute charges. Emission is guarded on
   [Event.active]: an untraced world pays one integer test. *)

type t = {
  be : Simnvm.Backend.t;
  sim : Simnvm.Memsys.t option; (* the simulator underneath, for [mem] *)
  sched : Scheduler.t;
  mutable rmw_tokens : (int, Mutex.t) Hashtbl.t option;
      (* per-line exclusive-ownership tokens: conflicting RMWs on one line
         serialise on real hardware (the line passes core to core), which a
         pure time charge cannot express. Created at the first
         [serialize_rmw]: most worlds, recoveries among them, never take
         one. *)
}

let init sim (be : Simnvm.Backend.t) sched =
  be.Simnvm.Backend.set_bus (Scheduler.trace_bus sched);
  be.Simnvm.Backend.set_charge (Scheduler.charge_hook sched);
  be.Simnvm.Backend.set_tid_provider (Scheduler.tid_hook sched);
  { be; sim; sched; rmw_tokens = None }

let make mem sched = init (Some mem) (Simnvm.Backend.of_memsys mem) sched
let make_backend be sched = init None be sched

let mem t =
  match t.sim with
  | Some m -> m
  | None ->
      invalid_arg
        ("Env.mem: world runs over external backend "
        ^ t.be.Simnvm.Backend.name)

let backend t = t.be
let sched t = t.sched
let line_words t = t.be.Simnvm.Backend.line_words

let load t addr =
  let v = t.be.Simnvm.Backend.load addr in
  Scheduler.poll t.sched;
  v

let store t addr v =
  t.be.Simnvm.Backend.store addr v;
  Scheduler.poll t.sched

let pwb t addr =
  t.be.Simnvm.Backend.pwb addr;
  Scheduler.poll t.sched

let psync t =
  t.be.Simnvm.Backend.psync ();
  Scheduler.poll t.sched

(* Conflicting atomic RMWs on one cache line serialise: the line is a token
   passed exclusively between cores, which a pure time charge cannot
   express. [serialize_rmw] holds the line's token across [f] (a hidden
   mutex whose hand-off gives exact virtual-time serialisation, including a
   line-transfer cost on contention). Lock-free algorithms additionally
   wrap their linearisation + flush sequences in it -- the real dependent
   chain that successive operations wait on. Reentrancy is not supported:
   nest [cas]/[faa] on a different line only. *)
let serialize_rmw t addr f =
  let line = Simnvm.Addr.line_of ~line_words:(line_words t) addr in
  let tokens =
    match t.rmw_tokens with
    | Some tokens -> tokens
    | None ->
        let tokens = Hashtbl.create 64 in
        t.rmw_tokens <- Some tokens;
        tokens
  in
  let token =
    match Hashtbl.find_opt tokens line with
    | Some m -> m
    | None ->
        let m = Mutex.create ~name:"rmw-token" () in
        Hashtbl.add tokens line m;
        m
  in
  Mutex.with_lock t.sched token (fun () ->
      let result = f () in
      Scheduler.charge t.sched 8.0;
      result)

(* An atomic RMW reaches the bus as its accesses — the memory publishes
   the load and, on success, the store — followed by an Rmw marker that
   records their atomicity, so the WAR rule and the race checker account
   for cas/faa like any other access. *)
let emit_rmw t addr =
  let bus = Scheduler.trace_bus t.sched in
  if Simnvm.Event.active bus then
    Simnvm.Event.emit bus
      (Simnvm.Event.Rmw { tid = Scheduler.current_tid_opt t.sched; addr })

(* Atomic compare-and-swap: no preemption point separates the read from the
   write, so it is atomic in the simulation exactly as the hardware
   instruction is. Charged as a store plus an RMW penalty; algorithms whose
   RMWs contend on one line must additionally wrap their dependent
   sequences in [serialize_rmw]. *)
let cas t addr ~expected ~desired =
  let ok = t.be.Simnvm.Backend.load addr = expected in
  if ok then t.be.Simnvm.Backend.store addr desired;
  emit_rmw t addr;
  Scheduler.charge t.sched 8.0;
  Scheduler.poll t.sched;
  ok

(* Atomic fetch-and-add, same atomicity argument as [cas]. *)
let faa t addr delta =
  let v = t.be.Simnvm.Backend.load addr in
  t.be.Simnvm.Backend.store addr (v + delta);
  emit_rmw t addr;
  Scheduler.charge t.sched 8.0;
  Scheduler.poll t.sched;
  v

(* Pure computation cost (the non-memory work of an application kernel). *)
let compute t ns =
  Scheduler.charge t.sched ns;
  (let bus = Scheduler.trace_bus t.sched in
   if Simnvm.Event.active bus then
     Simnvm.Event.emit bus
       (Simnvm.Event.Compute { tid = Scheduler.current_tid_opt t.sched; ns }));
  Scheduler.poll t.sched

(* A float-only record, so adding a charge stores the float unboxed. *)
type charge_sum = { mutable ns : float }

(* The flusher-pool cost model: the walk's charges are added up off the
   running thread's clock, through the backend's charge hook, and their
   sum divided by the pool width is charged as the pool's makespan. *)
let pool_makespan t ~pool walk =
  let be = t.be in
  let saved = be.Simnvm.Backend.get_charge () in
  let acc = { ns = 0.0 } in
  be.Simnvm.Backend.set_charge (fun ns -> acc.ns <- acc.ns +. ns);
  walk ();
  be.Simnvm.Backend.set_charge saved;
  let makespan = acc.ns /. float_of_int (max 1 pool) in
  Scheduler.charge t.sched makespan;
  makespan
