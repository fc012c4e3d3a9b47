(* The library's modules. [Trace] is a pure alias kept for the benchmark
   harness, which predates the one event stream; code in this repository
   names [Simnvm.Event] directly. *)

module Barrier = Barrier
module Condvar = Condvar
module Env = Env
module Mutex = Mutex
module Scheduler = Scheduler
module Trace = Simnvm.Event
