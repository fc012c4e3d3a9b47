(** Persistence-backend seam: the {!Memsys}-shaped operations consumed by
    the checkpointing runtime, the recovery procedure and the persistent
    data structures, as a record of closures (the {!Pds.Mem_iface} idiom).

    Backends implement PCSO-flavoured persistence over some medium: word
    [load]/[store] through a volatile view, [pwb]/[psync] to make lines
    durable, a crash-surviving image read through [persisted], and enough
    geometry ([line_words], [nvm_words]) for the runtime to compute its
    metadata {!Respct.Layout}. {!of_memsys} adapts the simulator;
    [lib/filemem] provides the memory-mapped-file backend.

    Contract notes:
    - addresses in [0, nvm_words) are durable-capable, addresses above
      are volatile scratch;
    - [load], [store], [pwb] and [psync] publish their {!Event.t} on the
      backend's bus before the access lands, and so do the cache outcomes,
      write-backs, crashes and scrubs that follow;
    - [persisted] and [peek] are host-level oracle views: no latency
      charge, no event;
    - a backend whose medium can fail raises {!Memsys.Media_error} from
      [load] exactly as the simulator does, and [scrub_line] clears the
      failure (zeroing the line);
    - [bus] is the bus the backend publishes on; [set_bus],
      [set_charge] and [set_tid_provider] are the three hooks
      [Simsched.Env] installs to make the backend a world's memory. *)

type t = {
  name : string;
  line_words : int;
  nvm_words : int;
  load : int -> int;
  store : int -> int -> unit;
  pwb : int -> unit;
  psync : unit -> unit;
  peek : int -> int;  (** logical (volatile-coherent) view; free, silent *)
  persisted : int -> int;  (** durable image view; free, silent *)
  crash : unit -> unit;  (** drop all volatile state, keep the image *)
  scrub_line : int -> unit;
  flush_all : unit -> unit;
  bus : unit -> Event.bus;
  set_bus : Event.bus -> unit;
  set_charge : (float -> unit) -> unit;
  get_charge : unit -> float -> unit;
  set_tid_provider : (unit -> int) -> unit;
}

val of_memsys : Memsys.t -> t
(** The simulator as a backend: each field is the {!Memsys} function of
    the same name. *)
