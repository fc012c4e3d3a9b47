(* Naive, obviously-correct reference memory model: the executable
   specification the optimized [Memsys] kernel is differential-tested
   against (test/test_refmodel.ml).

   Same decision procedure — set placement, LRU victims, prefetch window,
   coherence charges, every RNG draw in the same order — but built from
   deliberately simple structures: sparse word-maps for the backing
   stores (an explicit "the NVMM image is a function from word address to
   value" reading of DESIGN.md's PCSO spec), an explicit dirty-offset
   *set* per line instead of a bitmask, option-valued cache slots, a plain
   list for the prefetch ring, lists for media-fault state. No
   precomputed masks, no blits, no fast paths: every transfer is a
   word-at-a-time loop over the spec.

   The model always constructs its events (appending to a list) and
   accumulates its charges in operation order, so a run can be compared
   against Memsys event-for-event and to float equality on total cost. *)

type rline = {
  lineno : int;
  words : int array;
  mutable dirty_offs : int list; (* explicit dirty-word set, unordered *)
  mutable lru : int;
  mutable last_writer : int;
}

type t = {
  cfg : Memsys.config;
  pmem : (int, int) Hashtbl.t; (* word address -> value; absent = 0 *)
  dram : (int, int) Hashtbl.t;
  slots : rline option array; (* sets * ways, row-major by set *)
  mutable stamp : int;
  rng : Rng.t;
  mutable recent : int list; (* recently filled lines, newest first *)
  mutable poisoned : int list;
  mutable transient : int list;
  mutable crash_count : int;
  mutable tid : unit -> int;
  mutable charged : float;
  mutable events : Event.t list; (* newest first *)
}

let create cfg =
  if cfg.Memsys.nvm_words mod cfg.Memsys.line_words <> 0 then
    invalid_arg "Refmodel.create: nvm_words must be line-aligned";
  {
    cfg;
    pmem = Hashtbl.create 1024;
    dram = Hashtbl.create 1024;
    slots = Array.make (cfg.Memsys.sets * cfg.Memsys.ways) None;
    stamp = 0;
    rng = Rng.create cfg.Memsys.seed;
    recent = [];
    poisoned = [];
    transient = [];
    crash_count = 0;
    tid = (fun () -> -1);
    charged = 0.0;
    events = [];
  }

let set_tid_provider t f = t.tid <- f
let total_charge t = t.charged
let events t = List.rev t.events

let emit t ev = t.events <- ev :: t.events
let charge t ns = t.charged <- t.charged +. ns

let lw t = t.cfg.Memsys.line_words
let is_nvm t addr = addr < t.cfg.Memsys.nvm_words

let check_addr t addr =
  if addr < 0 || addr >= t.cfg.Memsys.nvm_words + t.cfg.Memsys.dram_words then
    invalid_arg (Printf.sprintf "Refmodel: address %d out of range" addr)

let backing_read t addr =
  let m = if is_nvm t addr then t.pmem else t.dram in
  match Hashtbl.find_opt m addr with Some v -> v | None -> 0

let backing_write t addr v =
  Hashtbl.replace (if is_nvm t addr then t.pmem else t.dram) addr v

let set_of t lineno =
  (lineno * 0x9E3779B1) lsr 11 land max_int mod t.cfg.Memsys.sets

let find t lineno =
  let base = set_of t lineno * t.cfg.Memsys.ways in
  let rec scan i =
    if i >= t.cfg.Memsys.ways then None
    else
      match t.slots.(base + i) with
      | Some l when l.lineno = lineno -> Some l
      | _ -> scan (i + 1)
  in
  scan 0

(* Victim slot index: first invalid way, else least-recently-used way
   (lowest way index wins ties, like the kernel's strict [<] scan). *)
let victim_slot t lineno =
  let base = set_of t lineno * t.cfg.Memsys.ways in
  let best = ref base in
  (try
     for i = 0 to t.cfg.Memsys.ways - 1 do
       match t.slots.(base + i) with
       | None ->
           best := base + i;
           raise Exit
       | Some l -> (
           match t.slots.(!best) with
           | Some b when l.lru < b.lru -> best := base + i
           | _ -> ())
     done
   with Exit -> ());
  !best

let line_dirty l = l.dirty_offs <> []
let is_dirty_off l off = List.mem off l.dirty_offs

let write_back ?(complete = true) t l =
  let base = l.lineno * lw t in
  let nvm = is_nvm t base in
  if t.cfg.Memsys.pcso || complete then begin
    for off = 0 to lw t - 1 do
      backing_write t (base + off) l.words.(off)
    done;
    l.dirty_offs <- []
  end
  else
    for off = 0 to lw t - 1 do
      if is_dirty_off l off && Rng.bool t.rng then begin
        backing_write t (base + off) l.words.(off);
        l.dirty_offs <- List.filter (fun o -> o <> off) l.dirty_offs
      end
    done;
  emit t
    (Event.Writeback
       { backing = (if nvm then Event.Nvm else Event.Dram); line = l.lineno });
  nvm

let check_media t lineno =
  if List.mem lineno t.transient then begin
    t.transient <- List.filter (fun l -> l <> lineno) t.transient;
    let addr = lineno * lw t in
    emit t (Event.Media_error { addr; line = lineno; transient = true });
    raise (Memsys.Media_error { addr; line = lineno; transient = true })
  end;
  if List.mem lineno t.poisoned then begin
    let addr = lineno * lw t in
    emit t (Event.Media_error { addr; line = lineno; transient = false });
    raise (Memsys.Media_error { addr; line = lineno; transient = false })
  end

let fill t lineno =
  check_media t lineno;
  let lat = t.cfg.Memsys.latency in
  let slot = victim_slot t lineno in
  (match t.slots.(slot) with
  | Some old when line_dirty old ->
      let nvm = write_back t old in
      charge t
        (if nvm then lat.Latency.nvm_writeback_ns
         else lat.Latency.dram_writeback_ns)
  | _ -> ());
  let base = lineno * lw t in
  let l =
    {
      lineno;
      words = Array.init (lw t) (fun off -> backing_read t (base + off));
      dirty_offs = [];
      lru = 0;
      last_writer = -1;
    }
  in
  t.slots.(slot) <- Some l;
  let prefetched = List.mem (lineno - 1) t.recent in
  t.recent <-
    lineno :: (if List.length t.recent >= 256 then
                 List.filteri (fun i _ -> i < 255) t.recent
               else t.recent);
  let nvm = is_nvm t base in
  emit t
    (Event.Miss
       {
         backing = (if nvm then Event.Nvm else Event.Dram);
         addr = base;
         prefetched;
       });
  let miss_ns =
    if prefetched then 12.0
    else if nvm then lat.Latency.nvm_miss_ns
    else lat.Latency.dram_miss_ns
  in
  charge t miss_ns;
  l

let lookup t addr =
  let lineno = addr / lw t in
  let l =
    match find t lineno with
    | Some l ->
        emit t (Event.Hit { addr });
        charge t t.cfg.Memsys.latency.Latency.cache_hit_ns;
        l
    | None -> fill t lineno
  in
  t.stamp <- t.stamp + 1;
  l.lru <- t.stamp;
  l

let spontaneous_eviction t =
  if
    t.cfg.Memsys.evict_rate > 0.0
    && Rng.float t.rng < t.cfg.Memsys.evict_rate
  then begin
    let i = Rng.int t.rng (Array.length t.slots) in
    match t.slots.(i) with
    | Some l when line_dirty l ->
        ignore (write_back ~complete:false t l);
        emit t (Event.Eviction { line = l.lineno })
    | _ -> ()
  end

let load t addr =
  check_addr t addr;
  emit t (Event.Load { tid = t.tid (); addr });
  let l = lookup t addr in
  let me = t.tid () in
  if l.last_writer >= 0 && l.last_writer <> me then begin
    charge t 60.0 (* coherence read *);
    l.last_writer <- -1
  end;
  l.words.(addr mod lw t)

let store t addr v =
  check_addr t addr;
  emit t (Event.Store { tid = t.tid (); addr });
  let l = lookup t addr in
  let me = t.tid () in
  if me >= 0 && l.last_writer <> me then charge t 80.0 (* coherence write *);
  if me >= 0 then l.last_writer <- me;
  let off = addr mod lw t in
  l.words.(off) <- v;
  if not (is_dirty_off l off) then l.dirty_offs <- off :: l.dirty_offs;
  charge t t.cfg.Memsys.latency.Latency.store_extra_ns;
  spontaneous_eviction t

let pwb t addr =
  check_addr t addr;
  let found = find t (addr / lw t) in
  let dirty = match found with Some l -> line_dirty l | None -> false in
  emit t (Event.Pwb { tid = t.tid (); addr; dirty });
  if dirty then begin
    ignore (write_back t (Option.get found));
    charge t t.cfg.Memsys.latency.Latency.clwb_ns
  end
  else charge t (t.cfg.Memsys.latency.Latency.clwb_ns /. 8.0)

let psync t =
  emit t (Event.Psync { tid = t.tid () });
  charge t t.cfg.Memsys.latency.Latency.sfence_ns

(* Seeded fault injection at a crash: the same decision tree, draw for
   draw, as the kernel's, over the naive structures. *)
let inject_crash_faults t (fc : Memsys.fault_config) =
  let rng =
    Rng.create (fc.Memsys.fault_seed + (t.crash_count * 0x9E3779B1))
  in
  let lwn = lw t in
  if not t.cfg.Memsys.eadr then
    Array.iter
      (fun slot ->
        match slot with
        | Some l when line_dirty l && is_nvm t (l.lineno * lwn) ->
            let mask =
              List.fold_left (fun m off -> m lor (1 lsl off)) 0 l.dirty_offs
            in
            if fc.Memsys.tear_rate > 0.0 && Rng.float rng < fc.Memsys.tear_rate
            then begin
              let kept = ref 0 in
              for off = 0 to lwn - 1 do
                if mask land (1 lsl off) <> 0 && Rng.bool rng then
                  kept := !kept lor (1 lsl off)
              done;
              if !kept = mask then begin
                let dirty_offs =
                  List.filter
                    (fun off -> mask land (1 lsl off) <> 0)
                    (List.init lwn Fun.id)
                in
                let drop =
                  List.nth dirty_offs (Rng.int rng (List.length dirty_offs))
                in
                kept := !kept land lnot (1 lsl drop)
              end;
              for off = 0 to lwn - 1 do
                if !kept land (1 lsl off) <> 0 then
                  backing_write t ((l.lineno * lwn) + off) l.words.(off)
              done;
              emit t
                (Event.Fault_injected
                   (Event.Torn { line = l.lineno; kept = !kept }))
            end;
            if
              fc.Memsys.poison_rate > 0.0
              && Rng.float rng < fc.Memsys.poison_rate
            then begin
              if not (List.mem l.lineno t.poisoned) then
                t.poisoned <- l.lineno :: t.poisoned;
              emit t (Event.Fault_injected (Event.Poisoned { line = l.lineno }))
            end
        | _ -> ())
      t.slots;
  if fc.Memsys.bitflip_rate > 0.0 then begin
    let k =
      int_of_float
        (Float.round
           (fc.Memsys.bitflip_rate *. float_of_int t.cfg.Memsys.nvm_words))
    in
    for _ = 1 to max 1 k do
      let addr = Rng.int rng t.cfg.Memsys.nvm_words in
      let bit = Rng.int rng 62 in
      backing_write t addr (backing_read t addr lxor (1 lsl bit));
      emit t (Event.Fault_injected (Event.Bitflip { addr; bit }))
    done
  end;
  if fc.Memsys.transient_rate > 0.0 then begin
    let nlines = t.cfg.Memsys.nvm_words / lwn in
    let k =
      int_of_float
        (Float.round (fc.Memsys.transient_rate *. float_of_int nlines))
    in
    for _ = 1 to max 1 k do
      let line = Rng.int rng nlines in
      if not (List.mem line t.transient) then t.transient <- line :: t.transient;
      emit t (Event.Fault_injected (Event.Transient_armed { line }))
    done
  end

let crash t =
  emit t (Event.Crash { eadr = t.cfg.Memsys.eadr });
  if t.cfg.Memsys.eadr then
    Array.iter
      (fun slot ->
        match slot with
        | Some l when line_dirty l && is_nvm t (l.lineno * lw t) ->
            ignore (write_back t l)
        | _ -> ())
      t.slots;
  (match t.cfg.Memsys.faults with
  | None -> ()
  | Some fc -> inject_crash_faults t fc);
  t.crash_count <- t.crash_count + 1;
  Array.fill t.slots 0 (Array.length t.slots) None;
  Hashtbl.reset t.dram

let persisted t addr =
  if addr < 0 || addr >= t.cfg.Memsys.nvm_words then
    invalid_arg "Refmodel.persisted: address not in NVMM";
  match Hashtbl.find_opt t.pmem addr with Some v -> v | None -> 0

let image t =
  Array.init t.cfg.Memsys.nvm_words (fun addr -> persisted t addr)

let is_cached_dirty t addr =
  match find t (addr / lw t) with Some l -> line_dirty l | None -> false

let check_nvm_line t lineno =
  if lineno < 0 || lineno * lw t >= t.cfg.Memsys.nvm_words then
    invalid_arg "Refmodel: line not in NVMM"

let poison_line t lineno =
  check_nvm_line t lineno;
  let base = set_of t lineno * t.cfg.Memsys.ways in
  for i = 0 to t.cfg.Memsys.ways - 1 do
    match t.slots.(base + i) with
    | Some l when l.lineno = lineno -> t.slots.(base + i) <- None
    | _ -> ()
  done;
  if not (List.mem lineno t.poisoned) then t.poisoned <- lineno :: t.poisoned

let arm_transient_fault t lineno =
  check_nvm_line t lineno;
  let base = set_of t lineno * t.cfg.Memsys.ways in
  for i = 0 to t.cfg.Memsys.ways - 1 do
    match t.slots.(base + i) with
    | Some l when l.lineno = lineno -> t.slots.(base + i) <- None
    | _ -> ()
  done;
  if not (List.mem lineno t.transient) then t.transient <- lineno :: t.transient

let scrub_line t lineno =
  check_nvm_line t lineno;
  t.poisoned <- List.filter (fun l -> l <> lineno) t.poisoned;
  for off = 0 to lw t - 1 do
    backing_write t ((lineno * lw t) + off) 0
  done;
  emit t (Event.Media_scrub { line = lineno })

let poisoned_lines t = List.sort compare t.poisoned
