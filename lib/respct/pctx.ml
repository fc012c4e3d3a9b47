(* Persistence context: what InCLL updates and persistent-heap operations
   need to know about the enclosing runtime, without depending on it.

   A context is bound to (runtime, thread slot): [epoch] reads the current
   global epoch, [add_modified] appends an address to that slot's
   to_be_flushed list (paper, Table 1), and [slot] keys the per-thread
   allocator caches. *)

type t = {
  env : Simsched.Env.t;
  slot : int;
  epoch : unit -> int;
      (* the slot's epoch view: the global word in the classic runtime, the
         slot's entry of the volatile per-slot epoch table when the
         pipelined coordinator is active *)
  add_modified : Simnvm.Addr.t -> unit;
  wait_epoch_durable : int -> unit;
      (* overlap barrier of the pipelined runtime: called with a cell's
         last-log epoch before the cell is re-logged; blocks until that
         epoch's background flush has sealed (wait-for-flushed policy).
         A no-op everywhere else. *)
  integrity : bool;
      (* seal InCLL epoch words with Checksum codes (faulty-media mode) *)
}
