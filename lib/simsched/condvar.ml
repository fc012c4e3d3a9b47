(* Simulated condition variable with pthread semantics. *)

let signal_ns = 20.0
let wait_ns = 25.0

type t = { name : string; waiters : int Queue.t }

let create ?(name = "condvar") () = { name; waiters = Queue.create () }

let wait sched cv m =
  Scheduler.charge sched wait_ns;
  let me = Scheduler.current_tid sched in
  Queue.add me cv.waiters;
  Mutex.unlock sched m;
  (* No preemption point between the queue registration above and this
     block: a signaller always observes us Blocked. *)
  Scheduler.block sched;
  Mutex.lock sched m

let signal sched cv =
  Scheduler.charge sched signal_ns;
  match Queue.take_opt cv.waiters with
  | Some tid -> Scheduler.wakeup sched tid ~at:(Scheduler.now sched)
  | None -> ()

let broadcast sched cv =
  Scheduler.charge sched signal_ns;
  let at = Scheduler.now sched in
  Queue.iter (fun tid -> Scheduler.wakeup sched tid ~at) cv.waiters;
  Queue.clear cv.waiters
