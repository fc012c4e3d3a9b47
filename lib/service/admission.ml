(* Bounded admission queue in front of a shard.

   Producers (the front-end fiber) never block: an offer against a full
   or closed queue fails immediately with a typed rejection the client
   can act on (back off and retry vs. give up). Consumers (shard
   workers) block on a condition variable and drain up to a batch of
   requests per wakeup into their own buffer; the wait is parameterised
   so a ResPCT worker can wrap it in checkpoint allow/prevent
   ({!Respct.Runtime.cond_wait}) without this module knowing about
   runtimes.

   The queue is an int ring of exactly [cap] slots: admission never lets
   the depth pass the cap, so the ring never grows. *)

type reject = Queue_full | Shard_down

type t = {
  sched : Simsched.Scheduler.t;
  ring : int array;  (* [cap] slots; the live ones are [head, head + len) *)
  mutable head : int;
  mutable len : int;
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
    ring = Array.make cap 0;
    head = 0;
    len = 0;
    mu = Simsched.Mutex.create ~name:(name ^ ".mu") ();
    nonempty = Simsched.Condvar.create ();
    closed = false;
    accepted = 0;
    rejected_full = 0;
    rejected_down = 0;
    max_depth = 0;
  }

(* The slot [i] places after the head. *)
let[@inline] slot t i =
  let s = t.head + i in
  let cap = Array.length t.ring in
  if s >= cap then s - cap else s

let offer t x =
  Simsched.Mutex.lock t.sched t.mu;
  let r =
    if t.closed then begin
      t.rejected_down <- t.rejected_down + 1;
      Error Shard_down
    end
    else if t.len >= Array.length t.ring then begin
      t.rejected_full <- t.rejected_full + 1;
      Error Queue_full
    end
    else begin
      t.ring.(slot t t.len) <- x;
      t.len <- t.len + 1;
      let d = t.len in
      if d > t.max_depth then t.max_depth <- d;
      t.accepted <- t.accepted + 1;
      Simsched.Condvar.signal t.sched t.nonempty;
      Ok d
    end
  in
  Simsched.Mutex.unlock t.sched t.mu;
  r

let take t buf ~wait =
  if Array.length buf = 0 then invalid_arg "Admission.take: empty buffer";
  Simsched.Mutex.lock t.sched t.mu;
  while t.len = 0 && not t.closed do
    wait t.nonempty t.mu
  done;
  let n = min (Array.length buf) t.len in
  for i = 0 to n - 1 do
    buf.(i) <- t.ring.(slot t i)
  done;
  t.head <- slot t n;
  t.len <- t.len - n;
  if t.len > 0 then Simsched.Condvar.signal t.sched t.nonempty;
  Simsched.Mutex.unlock t.sched t.mu;
  n

let close t =
  Simsched.Mutex.lock t.sched t.mu;
  t.closed <- true;
  let leftovers = List.init t.len (fun i -> t.ring.(slot t i)) in
  t.len <- 0;
  Simsched.Condvar.broadcast t.sched t.nonempty;
  Simsched.Mutex.unlock t.sched t.mu;
  leftovers

let accepted t = t.accepted
let rejected_full t = t.rejected_full
let rejected_down t = t.rejected_down
let max_depth t = t.max_depth
