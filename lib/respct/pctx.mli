(** Persistence context: the view of the enclosing checkpointing runtime
    that {!Incll} and {!Heap} operations need — the current epoch, the
    modification-tracking hook and the thread slot — without a dependency
    on {!Runtime}. *)

type t = {
  env : Simsched.Env.t;  (** memory + scheduler *)
  slot : int;  (** thread slot, keys per-thread allocator caches *)
  epoch : unit -> int;
      (** the slot's view of the current epoch: the global epoch word in
          the classic runtime, the slot's entry of the volatile per-slot
          epoch table under the pipelined coordinator *)
  add_modified : Simnvm.Addr.t -> unit;
      (** register an address for flushing at the next checkpoint *)
  wait_epoch_durable : int -> unit;
      (** overlap barrier of the pipelined runtime (wait-for-flushed):
          {!Incll.update} calls it with a cell's last-log epoch before
          re-logging the cell; it blocks until that epoch's background
          flush has sealed, so a single backup word never loses the
          still-unflushed start-of-epoch value. A no-op in every
          non-pipelined context. *)
  integrity : bool;
      (** seal InCLL epoch words with {!Checksum} codes (faulty-media
          hardening); off everywhere by default *)
}
