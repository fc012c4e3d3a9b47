(* Persistence-backend seam: the Memsys-shaped operations the runtime,
   the recovery procedure and the persistent data structures actually
   consume, lifted into a first-class record so a second backend (a
   memory-mapped file, a remote store) can slide in underneath them.

   A record of closures rather than a functor, deliberately: it matches
   the existing Pds.Mem_iface idiom, keeps every module monomorphic (no
   functor explosion through Runtime/Recovery/Heap), and lets one world
   hold backends of different provenance side by side (the prockill
   parent recovers a file image while its oracles run over a simulated
   one). Simsched.Env calls the record on every access, so a backend is a
   drop-in world memory: its accesses publish on the bus [set_bus]
   installs, and its costs reach the clock [set_charge] installs. *)

type t = {
  name : string;  (* "simnvm", "filemem:<path>", ... *)
  line_words : int;
  nvm_words : int;
  load : int -> int;
  store : int -> int -> unit;
  pwb : int -> unit;
  psync : unit -> unit;
  peek : int -> int;
  persisted : int -> int;
  crash : unit -> unit;
  scrub_line : int -> unit;
  flush_all : unit -> unit;
  bus : unit -> Event.bus;
  set_bus : Event.bus -> unit;
  set_charge : (float -> unit) -> unit;
  get_charge : unit -> float -> unit;
  set_tid_provider : (unit -> int) -> unit;
}

let of_memsys m =
  let cfg = Memsys.config m in
  {
    name = "simnvm";
    line_words = cfg.Memsys.line_words;
    nvm_words = cfg.Memsys.nvm_words;
    load = Memsys.load m;
    store = Memsys.store m;
    pwb = Memsys.pwb m;
    psync = (fun () -> Memsys.psync m);
    peek = Memsys.peek m;
    persisted = Memsys.persisted m;
    crash = (fun () -> Memsys.crash m);
    scrub_line = Memsys.scrub_line m;
    flush_all = (fun () -> Memsys.flush_all m);
    bus = (fun () -> Memsys.bus m);
    set_bus = Memsys.set_bus m;
    set_charge = Memsys.set_charge m;
    get_charge = (fun () -> Memsys.get_charge m);
    set_tid_provider = Memsys.set_tid_provider m;
  }
