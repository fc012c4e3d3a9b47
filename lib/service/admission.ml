(* Bounded admission queue in front of a shard.

   Producers (the front-end fiber) never block: an offer against a full
   or closed queue fails immediately with a typed rejection the client
   can act on (back off and retry vs. give up). Consumers (shard
   workers) block on a condition variable and drain up to a batch of
   requests per wakeup; the wait is parameterised so a ResPCT worker can
   wrap it in checkpoint allow/prevent ({!Respct.Runtime.cond_wait})
   without this module knowing about runtimes. *)

type reject = Queue_full | Shard_down

type 'a t = {
  sched : Simsched.Scheduler.t;
  cap : int;
  q : 'a Queue.t;
  mu : Simsched.Mutex.t;
  nonempty : Simsched.Condvar.t;
  mutable closed : bool;
  mutable accepted : int;
  mutable rejected_full : int;
  mutable rejected_down : int;
  mutable max_depth : int;
}

let create ?(name = "admission") sched ~cap =
  if cap <= 0 then invalid_arg "Admission.create: cap";
  {
    sched;
    cap;
    q = Queue.create ();
    mu = Simsched.Mutex.create ~name:(name ^ ".mu") ();
    nonempty = Simsched.Condvar.create ~name:(name ^ ".nonempty") ();
    closed = false;
    accepted = 0;
    rejected_full = 0;
    rejected_down = 0;
    max_depth = 0;
  }

let offer t x =
  Simsched.Mutex.lock t.sched t.mu;
  let r =
    if t.closed then begin
      t.rejected_down <- t.rejected_down + 1;
      Error Shard_down
    end
    else if Queue.length t.q >= t.cap then begin
      t.rejected_full <- t.rejected_full + 1;
      Error Queue_full
    end
    else begin
      Queue.push x t.q;
      let d = Queue.length t.q in
      if d > t.max_depth then t.max_depth <- d;
      t.accepted <- t.accepted + 1;
      Simsched.Condvar.signal t.sched t.nonempty;
      Ok d
    end
  in
  Simsched.Mutex.unlock t.sched t.mu;
  r

let take t ~max ~wait =
  if max <= 0 then invalid_arg "Admission.take: max";
  Simsched.Mutex.lock t.sched t.mu;
  while Queue.is_empty t.q && not t.closed do
    wait t.nonempty t.mu
  done;
  let n = min max (Queue.length t.q) in
  let rec grab n acc =
    if n = 0 then List.rev acc else grab (n - 1) (Queue.pop t.q :: acc)
  in
  let batch = grab n [] in
  if not (Queue.is_empty t.q) then Simsched.Condvar.signal t.sched t.nonempty;
  Simsched.Mutex.unlock t.sched t.mu;
  batch

let close t =
  Simsched.Mutex.lock t.sched t.mu;
  t.closed <- true;
  let leftovers = List.of_seq (Queue.to_seq t.q) in
  Queue.clear t.q;
  Simsched.Condvar.broadcast t.sched t.nonempty;
  Simsched.Mutex.unlock t.sched t.mu;
  leftovers

let accepted t = t.accepted
let rejected_full t = t.rejected_full
let rejected_down t = t.rejected_down
let max_depth t = t.max_depth
