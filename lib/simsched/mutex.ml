(* Simulated pthread-style mutex.

   Contended acquisitions are exact: on unlock with waiters, ownership is
   handed directly to the oldest waiter, whose clock is advanced to the
   release instant, so contended critical sections are perfectly
   serialised in virtual time.

   Uncontended acquisitions are approximate: a thread may acquire a free
   mutex at a clock slightly behind the previous holder's release, because
   dispatch order can run a whole critical section before a
   virtually-earlier thread gets the processor. Under min-clock scheduling
   this overlap is bounded by the scheduler quantum plus one operation.
   (Advancing the acquirer to the release time would close the gap but
   creates a positive-feedback ratchet -- inflated release times propagate
   through other locks and serialise unrelated threads -- so the bounded
   error is the right trade-off.)

   No preemption point sits between a wait-queue registration and the
   corresponding [Scheduler.block], so a waiter is always observably Blocked
   by the time any other thread can try to wake it. *)

let lock_ns = 18.0
let unlock_ns = 14.0

(* Cache-line transfer cost when the lock (and the data it protects) was
   last held by a different core: the coherence miss that dominates
   contended critical sections on real multiprocessors. *)
let coherence_ns = 90.0

type t = {
  name : string;
  id : int; (* stable identity for trace events *)
  mutable owner : int option;
  mutable last_owner : int;
  waiters : int Queue.t;
  mutable last_release : float;
}

let next_id = ref 0

let create ?(name = "mutex") () =
  incr next_id;
  {
    name;
    id = !next_id;
    owner = None;
    last_owner = -1;
    waiters = Queue.create ();
    last_release = 0.0;
  }

let lock sched m =
  Scheduler.charge sched lock_ns;
  Scheduler.poll sched;
  let me = Scheduler.current_tid sched in
  (if m.owner = None then begin
     m.owner <- Some me;
     if m.last_owner >= 0 && m.last_owner <> me then
       Scheduler.charge sched coherence_ns;
     m.last_owner <- me
   end
   else begin
     Queue.add me m.waiters;
     Scheduler.block sched;
     (* Ownership was handed off by the releaser, necessarily another core. *)
     assert (m.owner = Some me);
     Scheduler.charge sched coherence_ns;
     m.last_owner <- me
   end);
  let bus = Scheduler.trace_bus sched in
  if Trace.active bus then Trace.emit bus (Trace.Acquire { tid = me; lock = m.id })

let unlock sched m =
  let me = Scheduler.current_tid sched in
  (match m.owner with
  | Some owner when owner = me -> ()
  | Some _ | None ->
      invalid_arg (Printf.sprintf "Mutex.unlock(%s): not the owner" m.name));
  Scheduler.charge sched unlock_ns;
  let bus = Scheduler.trace_bus sched in
  if Trace.active bus then Trace.emit bus (Trace.Release { tid = me; lock = m.id });
  m.last_release <- Scheduler.now sched;
  match Queue.take_opt m.waiters with
  | Some next ->
      m.owner <- Some next;
      Scheduler.wakeup sched next ~at:m.last_release
  | None -> m.owner <- None

let try_lock sched m =
  Scheduler.charge sched lock_ns;
  let me = Scheduler.current_tid sched in
  if m.owner = None then begin
    m.owner <- Some me;
    if m.last_owner >= 0 && m.last_owner <> me then
      Scheduler.charge sched coherence_ns;
    m.last_owner <- me;
    true
  end
  else false

let holder m = m.owner

let with_lock sched m f =
  lock sched m;
  match f () with
  | v ->
      unlock sched m;
      v
  | exception e ->
      (* Simulated crashes must not release locks (the machine died). *)
      if e <> Scheduler.Crashed then unlock sched m;
      raise e
