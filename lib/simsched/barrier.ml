(* Reusable cyclic barrier for the data-parallel applications. *)

type t = {
  parties : int;
  m : Mutex.t;
  cv : Condvar.t;
  mutable arrived : int;
  mutable generation : int;
}

let create ?(name = "barrier") parties =
  if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
  {
    parties;
    m = Mutex.create ~name:(name ^ ".m") ();
    cv = Condvar.create ~name ();
    arrived = 0;
    generation = 0;
  }

let await sched b =
  Mutex.lock sched b.m;
  let gen = b.generation in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    b.generation <- b.generation + 1;
    Condvar.broadcast sched b.cv
  end
  else
    while b.generation = gen do
      Condvar.wait sched b.cv b.m
    done;
  Mutex.unlock sched b.m
