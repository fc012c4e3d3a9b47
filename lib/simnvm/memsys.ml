(* Simulated memory system: a volatile set-associative cache in front of a
   persistent NVMM image and a volatile DRAM region.

   The address space is split by [nvm_words]: addresses in [0, nvm_words) are
   NVMM-backed (they survive [crash]); addresses in
   [nvm_words, nvm_words + dram_words) are DRAM-backed (lost at a crash).

   Persistency model (PCSO, as on x86 with Intel DCPMM in App Direct mode):
   - stores land in the cache; a dirty line may be written back to its
     backing store at any time (spontaneous eviction, capacity eviction);
   - a write-back copies the line as a whole, so two stores to the same line
     can never persist out of program order -- the property In-Cache-Line
     Logging relies on;
   - [pwb] (clwb) persists one line, [psync] (sfence) orders: here pwb applies
     the write-back eagerly, which is a legal (conservative) PCSO behaviour,
     and psync only charges the fence cost.

   The [pcso] configuration flag exists for the ablation of DESIGN.md (5.1):
   with [pcso = false], a *spontaneous* write-back persists a random subset
   of the line's dirty words (the rest stay dirty and cached), deliberately
   violating same-line ordering; the InCLL crash-consistency property tests
   then fail, demonstrating the invariant is load-bearing. Explicit [pwb]
   and capacity evictions still persist the whole line even under the
   ablation — word-granular hardware reorders persists, it does not lose
   flushed data — which is what keeps the explicitly-flushing baselines
   (Clobber, SOFT, FriedmanQueue) correct under the same ablation.

   Hot-path discipline: every per-access structure is a flat array or
   bitset indexed by line number (no hashtables), set/offset arithmetic
   uses precomputed shifts and masks when the geometry is a power of two,
   and the steady state allocates nothing — events are only constructed
   when the bus has a subscriber, and the stats counters are bumped
   inline instead of travelling through the bus. The
   differential oracle in [Refmodel] pins this kernel, word for word and
   event for event, to a naive executable specification. *)

(* Faulty-media model (opt-in, [faults = None] costs nothing): at every
   crash, a dedicated RNG derived from [fault_seed] and the crash ordinal
   decides, per dirty NVMM line, whether its in-flight write-back tears
   (a strict subset of its dirty words persists — whole-line atomicity
   violated, words stay 8-byte atomic), whether the line's media poisons
   (subsequent fills raise {!Media_error} until {!scrub_line}), plus a
   batch of seeded bit flips on persisted words and armed one-shot
   transient read faults. Everything is replayable from the seed. *)
type fault_config = {
  fault_seed : int;
  tear_rate : float; (* per dirty NVMM line at crash *)
  poison_rate : float; (* per dirty NVMM line at crash *)
  bitflip_rate : float; (* expected flips per crash / nvm_words *)
  transient_rate : float; (* expected armed lines per crash / NVMM lines *)
}

let no_faults =
  {
    fault_seed = 0;
    tear_rate = 0.0;
    poison_rate = 0.0;
    bitflip_rate = 0.0;
    transient_rate = 0.0;
  }

type config = {
  nvm_words : int;
  dram_words : int;
  line_words : int;
  sets : int;
  ways : int;
  latency : Latency.t;
  evict_rate : float;
  seed : int;
  eadr : bool;
  pcso : bool;
  faults : fault_config option;
}

let default_config =
  {
    nvm_words = 1 lsl 20;
    dram_words = 1 lsl 18;
    line_words = Addr.default_line_words;
    sets = 1024;
    ways = 8;
    latency = Latency.default;
    evict_rate = 0.002;
    seed = 42;
    eadr = false;
    pcso = true;
    faults = None;
  }

exception Media_error of { addr : int; line : int; transient : bool }

(* Chunked backing stores. A simulated memory spans megawords of address
   space but a workload touches a sliver of it, so the backing arrays are
   tables of fixed-size chunks that all start out aliasing one shared,
   permanently-zero chunk: reads index straight through (the shared chunk
   really is zeroed, so no branch), writes materialize a private chunk
   first. World creation then costs a pointer per chunk instead of a
   zeroed word per address — the dominant cost of an experiment sweep
   creating hundreds of short-lived worlds. Chunks are 2K words because a
   crash campaign builds thousands of worlds that each write a few
   scattered lines, and every such write materialises a whole chunk. *)
let chunk_shift = 11
let chunk_words = 1 lsl chunk_shift
let chunk_mask = chunk_words - 1
let zero_chunk = Array.make chunk_words 0

type store = int array array

let store_make words : store =
  Array.make ((words + chunk_mask) lsr chunk_shift) zero_chunk

let[@inline] store_get (s : store) i =
  Array.unsafe_get s.(i lsr chunk_shift) (i land chunk_mask)

let chunk_for_write (s : store) k =
  let c = s.(k) in
  if c != zero_chunk then c
  else begin
    let c = Array.make chunk_words 0 in
    s.(k) <- c;
    c
  end

let store_set (s : store) i v =
  (chunk_for_write s (i lsr chunk_shift)).(i land chunk_mask) <- v

let[@inline] store_add (s : store) i d =
  let c = chunk_for_write s (i lsr chunk_shift) in
  let off = i land chunk_mask in
  c.(off) <- c.(off) + d

(* Lines need not divide chunks (line_words is any size <= 62), so the
   blits walk chunk boundaries. *)
let store_blit_in (s : store) pos (src : int array) srcpos len =
  let rec go pos srcpos len =
    if len > 0 then begin
      let c = chunk_for_write s (pos lsr chunk_shift) in
      let off = pos land chunk_mask in
      let n = min len (chunk_words - off) in
      Array.blit src srcpos c off n;
      go (pos + n) (srcpos + n) (len - n)
    end
  in
  go pos srcpos len

let store_blit_out (s : store) pos (dst : int array) dstpos len =
  let rec go pos dstpos len =
    if len > 0 then begin
      let c = s.(pos lsr chunk_shift) in
      let off = pos land chunk_mask in
      let n = min len (chunk_words - off) in
      Array.blit c off dst dstpos n;
      go (pos + n) (dstpos + n) (len - n)
    end
  in
  go pos dstpos len

let store_fill_zero (s : store) pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = pos lsr chunk_shift in
      let off = pos land chunk_mask in
      let n = min len (chunk_words - off) in
      if s.(k) != zero_chunk then Array.fill s.(k) off n 0;
      go (pos + n) (len - n)
    end
  in
  go pos len

(* Zero the whole store by dropping every private chunk. *)
let store_clear (s : store) = Array.fill s 0 (Array.length s) zero_chunk

type line = {
  mutable tag : int; (* line index in the address space; -1 = invalid *)
  mutable data : int array; (* aliases [no_data] until the first fill *)
  mutable dirty : bool;
  mutable dirty_mask : int; (* bitmask of dirty words, for the pcso ablation *)
  mutable lru : int;
  mutable last_writer : int; (* thread that last wrote the line; -1 = shared *)
}

(* Shared placeholder for the data of never-filled lines: only [fill]
   writes to an invalid line, and it materializes a private array first,
   so the placeholder is never read or written. *)
let no_data : int array = [||]

type t = {
  cfg : config;
  pmem : store; (* the persistent NVMM image *)
  dram : store;
  lines : line array; (* sets * ways, row-major by set *)
  mutable stamp : int;
  rng : Rng.t;
  stats : Stats.t; (* bumped inline on the hot path, not through the bus *)
  mutable bus : Event.bus; (* the world's bus once Env.make couples it *)
  mutable charge : float -> unit;
  mutable current_tid : unit -> int;
  (* Precomputed geometry. [lw_shift]/[lw_mask] and [sets_mask] are -1
     when the corresponding dimension is not a power of two (fall back to
     division). *)
  lw : int;
  lw_shift : int;
  lw_mask : int;
  sets_mask : int;
  ways : int;
  nvm_lines : int;
  total_lines : int;
  recent_fills : int array; (* ring of recently filled line numbers *)
  recent_count : store; (* line -> occurrences in the ring *)
  mutable recent_pos : int;
  (* Faulty-media state: poisoned NVMM lines (fills raise until scrubbed)
     and armed one-shot transient read faults, as bitsets over the NVMM
     line numbers with element counts for the fast emptiness test. Both
     stay empty with [faults = None] unless a host hook plants faults. *)
  poisoned_bits : Bytes.t;
  mutable n_poisoned : int;
  transient_bits : Bytes.t;
  mutable n_transient : int;
  mutable crash_count : int;
  (* Undo journal of the live snapshot (0 = none taken yet): the NVMM
     lines written since the snapshot or its last restore, as a sparse
     set — line [l] is journaled iff [i = jr_slot.(l)] is below
     [jr_count] and [jr_lines.(i) = l] — with the line's old words at
     [jr_words.(i * lw)]. Emptying it is resetting the count. *)
  mutable snap_id : int;
  jr_slot : store;
  mutable jr_lines : int array;
  mutable jr_words : int array;
  mutable jr_count : int;
}

type snapshot = { owner : t; id : int }

let no_charge (_ : float) = ()
let no_tid () = -1

(* Bitset primitives over [Bytes]; indices are validated by the callers
   (every producer bounds-checks the line number first). *)
let[@inline] bit_get b i =
  Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7))))

(* Event publication. Emission sites guard on [has_subs] before
   constructing the event, so a world nobody observes pays one integer
   test per event site and never allocates. *)

let[@inline] has_subs t = Event.active t.bus
let emit t ev = Event.emit t.bus ev
let bus t = t.bus
let set_bus t b = t.bus <- b

(* MESI-style coherence approximation: reading a line last written by a
   different core pays a cache-to-cache transfer and demotes the line to
   shared; writing a line one does not own exclusively pays the
   invalidation round. Modelled on top of the single simulated cache. *)
let coherence_read_ns = 60.0
let coherence_write_ns = 80.0

(* Next-line hardware prefetcher: a miss whose predecessor line was filled
   recently is served from the prefetch stream at a fraction of the miss
   latency. Sequential kernels (matrix rows, point streams) hide most of
   the NVMM latency this way, as they do on real hardware. *)
let prefetch_window = 256
let prefetch_mask = prefetch_window - 1
let prefetched_miss_ns = 12.0

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go p acc = if p >= n then acc else go (2 * p) (acc + 1) in
  go 1 0

let create cfg =
  if cfg.nvm_words mod cfg.line_words <> 0 then
    invalid_arg "Memsys.create: nvm_words must be line-aligned";
  if cfg.line_words > 62 then
    invalid_arg "Memsys.create: line_words must fit a dirty bitmask";
  let mk_line _ =
    {
      tag = -1;
      data = no_data;
      dirty = false;
      dirty_mask = 0;
      lru = 0;
      last_writer = -1;
    }
  in
  let lw = cfg.line_words in
  let nvm_lines = cfg.nvm_words / lw in
  let total_lines = (cfg.nvm_words + cfg.dram_words + lw - 1) / lw in
  {
    cfg;
    pmem = store_make cfg.nvm_words;
    dram = store_make cfg.dram_words;
    lines = Array.init (cfg.sets * cfg.ways) mk_line;
    stamp = 0;
    rng = Rng.create cfg.seed;
    stats = Stats.create ();
    bus = Event.create_bus ();
    charge = no_charge;
    current_tid = no_tid;
    lw;
    lw_shift = (if is_pow2 lw then log2 lw else -1);
    lw_mask = (if is_pow2 lw then lw - 1 else -1);
    sets_mask = (if is_pow2 cfg.sets then cfg.sets - 1 else -1);
    ways = cfg.ways;
    nvm_lines;
    total_lines;
    recent_fills = Array.make prefetch_window (-1);
    recent_count = store_make (total_lines + 1);
    recent_pos = 0;
    poisoned_bits = Bytes.make (max 1 ((nvm_lines + 7) / 8)) '\000';
    n_poisoned = 0;
    transient_bits = Bytes.make (max 1 ((nvm_lines + 7) / 8)) '\000';
    n_transient = 0;
    crash_count = 0;
    snap_id = 0;
    jr_slot = store_make nvm_lines;
    jr_lines = [||];
    jr_words = [||];
    jr_count = 0;
  }

let config t = t.cfg
let stats t = t.stats
let set_charge t f = t.charge <- f
let get_charge t = t.charge
let set_tid_provider t f = t.current_tid <- f

let is_nvm t addr = addr < t.cfg.nvm_words

let check_addr t addr =
  if addr < 0 || addr >= t.cfg.nvm_words + t.cfg.dram_words then
    invalid_arg (Printf.sprintf "Memsys: address %d out of range" addr)

(* Line/offset arithmetic on the precomputed geometry. *)
let[@inline] line_of t addr =
  if t.lw_shift >= 0 then addr lsr t.lw_shift else addr / t.lw

let[@inline] off_of t addr =
  if t.lw_mask >= 0 then addr land t.lw_mask else addr mod t.lw

(* Undo journal. While a snapshot is live, every writer into [pmem] —
   whole-line and partial write-back, crash-time tears and bit flips,
   [poke_persisted], [scrub_line] — first calls [journal], which saves
   the line's old words on its first write since the snapshot or the last
   restore. [restore] copies exactly those lines back, so installing an
   image costs the lines recovery wrote, not the NVMM size. Without a
   live snapshot a write-back pays one integer test. *)

let journal_slot t lineno =
  let i = store_get t.jr_slot lineno in
  if i < t.jr_count && t.jr_lines.(i) = lineno then i else -1

let journal_line t lineno =
  if journal_slot t lineno < 0 then begin
    let n = t.jr_count and lw = t.lw in
    if n = Array.length t.jr_lines then begin
      let cap = max 16 (2 * n) in
      let lines = Array.make cap (-1) and words = Array.make (cap * lw) 0 in
      Array.blit t.jr_lines 0 lines 0 n;
      Array.blit t.jr_words 0 words 0 (n * lw);
      t.jr_lines <- lines;
      t.jr_words <- words
    end;
    t.jr_lines.(n) <- lineno;
    store_blit_out t.pmem (lineno * lw) t.jr_words (n * lw) lw;
    store_set t.jr_slot lineno n;
    t.jr_count <- n + 1
  end

let[@inline] journal t lineno = if t.snap_id > 0 then journal_line t lineno

(* Backing-store write, indexed by line number (partial persists only;
   whole-line transfers use Array.blit directly). *)

let backing_write t lineno off v =
  let addr = (lineno * t.lw) + off in
  if is_nvm t addr then begin
    journal t lineno;
    store_set t.pmem addr v
  end
  else store_set t.dram (addr - t.cfg.nvm_words) v

(* Persist a cached line to its backing store. Under PCSO the whole line is
   copied atomically (one blit). Under the ablation a *spontaneous*
   ([complete=false]) write-back persists only a random subset of the dirty
   words, modelling word-granular (non-PCSO) write-back hardware: the
   unpersisted words stay dirty in the cache, so explicit flushes ([pwb],
   capacity evictions, eADR drain — [complete=true]) still persist
   everything and only the *ordering* of persists is weakened, never their
   durability. *)
let write_back ?(complete = true) t line =
  let lineno = line.tag in
  let base = lineno * t.lw in
  let nvm = is_nvm t base in
  if t.cfg.pcso || complete then begin
    if nvm then begin
      journal t lineno;
      store_blit_in t.pmem base line.data 0 t.lw
    end
    else store_blit_in t.dram (base - t.cfg.nvm_words) line.data 0 t.lw;
    line.dirty <- false;
    line.dirty_mask <- 0
  end
  else begin
    let mask = ref line.dirty_mask in
    for off = 0 to t.lw - 1 do
      if line.dirty_mask land (1 lsl off) <> 0 && Rng.bool t.rng then begin
        backing_write t lineno off line.data.(off);
        mask := !mask land lnot (1 lsl off)
      end
    done;
    line.dirty_mask <- !mask;
    line.dirty <- !mask <> 0
  end;
  (let s = t.stats in
   if nvm then s.Stats.nvm_writebacks <- s.Stats.nvm_writebacks + 1
   else s.Stats.dram_writebacks <- s.Stats.dram_writebacks + 1);
  if has_subs t then
    emit t
      (Event.Writeback
         { backing = (if nvm then Event.Nvm else Event.Dram); line = lineno });
  nvm

(* Set index uses a multiplicative hash, as real LLCs hash addresses to
   slices: without it, regular allocation strides (per-thread heap chunks)
   alias into a handful of sets and thrash artificially. *)
let[@inline] set_of t lineno =
  let h = (lineno * 0x9E3779B1) lsr 11 land max_int in
  if t.sets_mask >= 0 then h land t.sets_mask else h mod t.cfg.sets

(* Hot-path lookup: the way index of [lineno] in its set, or -1. No option
   allocation on a hit. *)
let[@inline] find_slot t lineno =
  let base = set_of t lineno * t.ways in
  let lines = t.lines in
  let rec scan i =
    if i >= t.ways then -1
    else if (Array.unsafe_get lines (base + i)).tag = lineno then base + i
    else scan (i + 1)
  in
  scan 0

(* Cold-path wrapper for the host/test hooks. *)
let find_line t lineno =
  match find_slot t lineno with -1 -> None | i -> Some t.lines.(i)

(* Victim: an invalid way if any, else the least recently used. *)
let victim t lineno =
  let base = set_of t lineno * t.ways in
  let best = ref t.lines.(base) in
  (try
     for i = 0 to t.ways - 1 do
       let line = t.lines.(base + i) in
       if line.tag = -1 then begin
         best := line;
         raise Exit
       end;
       if line.lru < !best.lru then best := line
     done
   with Exit -> ());
  !best

(* Media check on a line fill: an armed transient fault fails exactly one
   read and disarms; a poisoned line fails every read until {!scrub_line}.
   The raise happens before any cache mutation (victim selection included),
   so a caught Media_error leaves the cache exactly as it was — retrying a
   transient fault re-fills cleanly. Fault-free worlds pay two integer
   tests per miss. *)
let check_media t lineno =
  if t.n_transient > 0 && lineno < t.nvm_lines && bit_get t.transient_bits lineno
  then begin
    bit_clear t.transient_bits lineno;
    t.n_transient <- t.n_transient - 1;
    let addr = lineno * t.lw in
    t.stats.Stats.media_errors <- t.stats.Stats.media_errors + 1;
    if has_subs t then
      emit t (Event.Media_error { addr; line = lineno; transient = true });
    raise (Media_error { addr; line = lineno; transient = true })
  end;
  if t.n_poisoned > 0 && lineno < t.nvm_lines && bit_get t.poisoned_bits lineno
  then begin
    let addr = lineno * t.lw in
    t.stats.Stats.media_errors <- t.stats.Stats.media_errors + 1;
    if has_subs t then
      emit t (Event.Media_error { addr; line = lineno; transient = false });
    raise (Media_error { addr; line = lineno; transient = false })
  end

(* Bring a line into the cache, returning it. Charges miss cost (and the
   victim write-back cost, which delays the fill) via the charge hook. *)
let fill t lineno =
  check_media t lineno;
  let lat = t.cfg.latency in
  let line = victim t lineno in
  if line.tag >= 0 && line.dirty then begin
    let nvm = write_back t line in
    t.charge
      (if nvm then lat.Latency.nvm_writeback_ns
       else lat.Latency.dram_writeback_ns)
  end;
  let base = lineno * t.lw in
  line.tag <- lineno;
  line.dirty <- false;
  line.dirty_mask <- 0;
  line.last_writer <- -1;
  let nvm = is_nvm t base in
  if line.data == no_data then line.data <- Array.make t.lw 0;
  if nvm then store_blit_out t.pmem base line.data 0 t.lw
  else store_blit_out t.dram (base - t.cfg.nvm_words) line.data 0 t.lw;
  let prefetched = lineno > 0 && store_get t.recent_count (lineno - 1) > 0 in
  (let old = t.recent_fills.(t.recent_pos) in
   if old >= 0 then store_add t.recent_count old (-1);
   t.recent_fills.(t.recent_pos) <- lineno;
   store_add t.recent_count lineno 1;
   t.recent_pos <- (t.recent_pos + 1) land prefetch_mask);
  (let s = t.stats in
   if nvm then s.Stats.nvm_misses <- s.Stats.nvm_misses + 1
   else s.Stats.dram_misses <- s.Stats.dram_misses + 1);
  if has_subs t then
    emit t
      (Event.Miss
         {
           backing = (if nvm then Event.Nvm else Event.Dram);
           addr = base;
           prefetched;
         });
  if nvm then
    t.charge (if prefetched then prefetched_miss_ns else lat.Latency.nvm_miss_ns)
  else
    t.charge (if prefetched then prefetched_miss_ns else lat.Latency.dram_miss_ns);
  line

let lookup t addr =
  let lineno = line_of t addr in
  let slot = find_slot t lineno in
  let line =
    if slot >= 0 then begin
      let line = Array.unsafe_get t.lines slot in
      t.stats.Stats.hits <- t.stats.Stats.hits + 1;
      if has_subs t then emit t (Event.Hit { addr });
      t.charge t.cfg.latency.Latency.cache_hit_ns;
      line
    end
    else fill t lineno
  in
  t.stamp <- t.stamp + 1;
  line.lru <- t.stamp;
  line

(* Background hardware may write any dirty line back at any moment: with
   probability [evict_rate] per store, persist one random dirty line. Not
   charged to the running thread (it is asynchronous hardware activity).
   This is what creates the partial-persistence hazard that undo logging
   must defend against. *)
let spontaneous_eviction t =
  if t.cfg.evict_rate > 0.0 && Rng.float t.rng < t.cfg.evict_rate then begin
    let i = Rng.int t.rng (Array.length t.lines) in
    let line = t.lines.(i) in
    if line.tag >= 0 && line.dirty then begin
      ignore (write_back ~complete:false t line);
      t.stats.Stats.spontaneous_evictions <-
        t.stats.Stats.spontaneous_evictions + 1;
      if has_subs t then emit t (Event.Eviction { line = line.tag })
    end
  end

let load t addr =
  check_addr t addr;
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  if has_subs t then emit t (Event.Load { tid = t.current_tid (); addr });
  let line = lookup t addr in
  let me = t.current_tid () in
  if line.last_writer >= 0 && line.last_writer <> me then begin
    t.charge coherence_read_ns;
    line.last_writer <- -1
  end;
  line.data.(off_of t addr)

let store t addr v =
  check_addr t addr;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  if has_subs t then emit t (Event.Store { tid = t.current_tid (); addr });
  let line = lookup t addr in
  let me = t.current_tid () in
  if me >= 0 && line.last_writer <> me then t.charge coherence_write_ns;
  if me >= 0 then line.last_writer <- me;
  let off = off_of t addr in
  line.data.(off) <- v;
  line.dirty <- true;
  line.dirty_mask <- line.dirty_mask lor (1 lsl off);
  t.charge t.cfg.latency.Latency.store_extra_ns;
  spontaneous_eviction t

let pwb t addr =
  check_addr t addr;
  let lineno = line_of t addr in
  let slot = find_slot t lineno in
  let dirty = slot >= 0 && t.lines.(slot).dirty in
  t.stats.Stats.pwbs <- t.stats.Stats.pwbs + 1;
  if has_subs t then
    emit t (Event.Pwb { tid = t.current_tid (); addr; dirty });
  if dirty then begin
    ignore (write_back t t.lines.(slot));
    t.charge t.cfg.latency.Latency.clwb_ns
  end
  else
    (* clwb of a clean or absent line: issue cost only. *)
    t.charge (t.cfg.latency.Latency.clwb_ns /. 8.0)

let psync t =
  t.stats.Stats.psyncs <- t.stats.Stats.psyncs + 1;
  if has_subs t then emit t (Event.Psync { tid = t.current_tid () });
  t.charge t.cfg.latency.Latency.sfence_ns

(* Deterministically persist-and-invalidate the line holding [addr]; used by
   tests to force a chosen partial state into NVMM before a crash. *)
let force_evict t addr =
  check_addr t addr;
  match find_line t (line_of t addr) with
  | Some line ->
      if line.dirty then ignore (write_back t line);
      line.tag <- -1
  | None -> ()

(* Drop the line holding [addr] without writing it back: used by tests to
   guarantee a store did NOT persist. *)
let drop_line t addr =
  check_addr t addr;
  match find_line t (line_of t addr) with
  | Some line ->
      line.tag <- -1;
      line.dirty <- false;
      line.dirty_mask <- 0
  | None -> ()

let is_cached_dirty t addr =
  match find_line t (line_of t addr) with
  | Some line -> line.dirty
  | None -> false

let bump_faults t =
  t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + 1

(* Seeded fault injection at a crash. The RNG derives from the config's
   fault seed and the crash ordinal, so the nth crash of a given world
   always injects the same faults. Under eADR the drain already persisted
   every line whole, so only bit flips and transient faults apply; without
   eADR each dirty NVMM line may additionally tear (persist a strict,
   seeded subset of its dirty words — the violation of whole-line
   atomicity real hardware exhibits at 8-byte granularity) or poison. *)
let inject_crash_faults t (fc : fault_config) =
  let rng = Rng.create (fc.fault_seed + (t.crash_count * 0x9E3779B1)) in
  let lw = t.lw in
  if not t.cfg.eadr then
    Array.iter
      (fun line ->
        if line.tag >= 0 && line.dirty && is_nvm t (line.tag * lw) then begin
          if fc.tear_rate > 0.0 && Rng.float rng < fc.tear_rate then begin
            (* Persist a strict subset of the dirty words: each dirty word
               independently, then force at least one dropped word so the
               tear is observable. *)
            let kept = ref 0 in
            for off = 0 to lw - 1 do
              if line.dirty_mask land (1 lsl off) <> 0 && Rng.bool rng then
                kept := !kept lor (1 lsl off)
            done;
            if !kept = line.dirty_mask then begin
              (* drop one dirty word, chosen by the seed: the k-th set bit
                 of the mask in increasing offset order *)
              let n_dirty = ref 0 in
              for off = 0 to lw - 1 do
                if line.dirty_mask land (1 lsl off) <> 0 then incr n_dirty
              done;
              let k = Rng.int rng !n_dirty in
              let drop = ref 0 and seen = ref 0 in
              (try
                 for off = 0 to lw - 1 do
                   if line.dirty_mask land (1 lsl off) <> 0 then begin
                     if !seen = k then begin
                       drop := off;
                       raise Exit
                     end;
                     incr seen
                   end
                 done
               with Exit -> ());
              kept := !kept land lnot (1 lsl !drop)
            end;
            for off = 0 to lw - 1 do
              if !kept land (1 lsl off) <> 0 then
                backing_write t line.tag off line.data.(off)
            done;
            bump_faults t;
            if has_subs t then
              emit t
                (Event.Fault_injected
                   (Event.Torn { line = line.tag; kept = !kept }))
          end;
          if fc.poison_rate > 0.0 && Rng.float rng < fc.poison_rate then begin
            if not (bit_get t.poisoned_bits line.tag) then begin
              bit_set t.poisoned_bits line.tag;
              t.n_poisoned <- t.n_poisoned + 1
            end;
            bump_faults t;
            if has_subs t then
              emit t (Event.Fault_injected (Event.Poisoned { line = line.tag }))
          end
        end)
      t.lines;
  if fc.bitflip_rate > 0.0 then begin
    let k =
      int_of_float (Float.round (fc.bitflip_rate *. float_of_int t.cfg.nvm_words))
    in
    for _ = 1 to max 1 k do
      let addr = Rng.int rng t.cfg.nvm_words in
      let bit = Rng.int rng 62 in
      journal t (line_of t addr);
      store_set t.pmem addr (store_get t.pmem addr lxor (1 lsl bit));
      bump_faults t;
      if has_subs t then
        emit t (Event.Fault_injected (Event.Bitflip { addr; bit }))
    done
  end;
  if fc.transient_rate > 0.0 then begin
    let nlines = t.nvm_lines in
    let k =
      int_of_float (Float.round (fc.transient_rate *. float_of_int nlines))
    in
    for _ = 1 to max 1 k do
      let line = Rng.int rng nlines in
      if not (bit_get t.transient_bits line) then begin
        bit_set t.transient_bits line;
        t.n_transient <- t.n_transient + 1
      end;
      bump_faults t;
      if has_subs t then
        emit t (Event.Fault_injected (Event.Transient_armed { line }))
    done
  end

let crash t =
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  if has_subs t then emit t (Event.Crash { eadr = t.cfg.eadr });
  if t.cfg.eadr then
    (* eADR: the cache is in the persistent domain; dirty NVMM lines are
       drained by the battery-backed flush on power failure. *)
    Array.iter
      (fun line ->
        if line.tag >= 0 && line.dirty && is_nvm t (line.tag * t.lw) then
          ignore (write_back t line))
      t.lines;
  (match t.cfg.faults with
  | None -> ()
  | Some fc -> inject_crash_faults t fc);
  t.crash_count <- t.crash_count + 1;
  Array.iter
    (fun line ->
      line.tag <- -1;
      line.dirty <- false;
      line.dirty_mask <- 0)
    t.lines;
  store_clear t.dram

let persisted t addr =
  if addr < 0 || addr >= t.cfg.nvm_words then
    invalid_arg "Memsys.persisted: address not in NVMM";
  store_get t.pmem addr

let flush_all t =
  Array.iter (fun line -> if line.tag >= 0 && line.dirty then ignore (write_back t line)) t.lines

(* ------------------------------------------------------------------ *)
(* Crash-image hooks for the systematic crash explorer (lib/crashtest).

   These are host-level accessors: no latency is charged, no event is
   emitted and, [restore] aside, no cache state (LRU, prefetch ring, RNG)
   is perturbed, so a subscriber-driven pilot run and its per-boundary
   re-executions observe identical event sequences whether or not an
   explorer is watching. [restore] runs only after a crash, between
   recoveries, and resets that state the same way every time. *)

(* Logical (cache-coherent) view of a word, bypassing cost and events. *)
let peek t addr =
  check_addr t addr;
  match find_line t (line_of t addr) with
  | Some line -> line.data.(off_of t addr)
  | None ->
      if is_nvm t addr then store_get t.pmem addr
      else store_get t.dram (addr - t.cfg.nvm_words)

type dirty_line = { lineno : int; data : int array; mask : int }

let dirty_nvm_lines t =
  Array.fold_right
    (fun line acc ->
      if line.tag >= 0 && line.dirty && is_nvm t (line.tag * t.lw) then
        { lineno = line.tag; data = Array.copy line.data; mask = line.dirty_mask }
        :: acc
      else acc)
    t.lines []

(* Materialize the persisted image as one flat array: blit every private
   chunk, leave the zero-chunk spans as the zeros Array.make gave us. *)
let image t =
  let words = t.cfg.nvm_words in
  let out = Array.make words 0 in
  Array.iteri
    (fun k c ->
      if c != zero_chunk then
        let pos = k lsl chunk_shift in
        Array.blit c 0 out pos (min chunk_words (words - pos)))
    t.pmem;
  out

(* Snapshots are undo journals over [pmem] (see [journal]): taking one
   copies nothing, and only the live one may be restored or read, because
   the journal only knows the lines written since that snapshot. *)
let snapshot t =
  t.snap_id <- t.snap_id + 1;
  t.jr_count <- 0;
  { owner = t; id = t.snap_id }

let check_live t s fn =
  if s.owner != t || s.id <> t.snap_id then
    invalid_arg ("Memsys." ^ fn ^ ": not the live snapshot of this memory")

let restore t s =
  check_live t s "restore";
  let lw = t.lw in
  for i = 0 to t.jr_count - 1 do
    store_blit_in t.pmem (t.jr_lines.(i) * lw) t.jr_words (i * lw) lw
  done;
  t.jr_count <- 0;
  Array.iter
    (fun line ->
      line.tag <- -1;
      line.dirty <- false;
      line.dirty_mask <- 0;
      line.last_writer <- -1)
    t.lines;
  store_clear t.dram;
  (* Empty the prefetch ring entry by entry: clearing [recent_count]
     wholesale would drop its chunks and re-materialise them on the next
     miss. *)
  for i = 0 to prefetch_window - 1 do
    let l = t.recent_fills.(i) in
    if l >= 0 then begin
      store_add t.recent_count l (-1);
      t.recent_fills.(i) <- -1
    end
  done;
  t.recent_pos <- 0;
  (* A snapshot image carries no fault state: each adversarial
     re-recovery starts from healthy media and plants its own faults. *)
  if t.n_poisoned > 0 then begin
    Bytes.fill t.poisoned_bits 0 (Bytes.length t.poisoned_bits) '\000';
    t.n_poisoned <- 0
  end;
  if t.n_transient > 0 then begin
    Bytes.fill t.transient_bits 0 (Bytes.length t.transient_bits) '\000';
    t.n_transient <- 0
  end

let snapshot_persisted s addr =
  let t = s.owner in
  check_live t s "snapshot_persisted";
  if addr < 0 || addr >= t.cfg.nvm_words then
    invalid_arg "Memsys.snapshot_persisted: address not in NVMM";
  match journal_slot t (line_of t addr) with
  | -1 -> store_get t.pmem addr
  | i -> t.jr_words.((i * t.lw) + off_of t addr)

let poke_persisted t addr v =
  if addr < 0 || addr >= t.cfg.nvm_words then
    invalid_arg "Memsys.poke_persisted: address not in NVMM";
  journal t (line_of t addr);
  store_set t.pmem addr v

(* ------------------------------------------------------------------ *)
(* Fault-plan hooks: plant media faults directly (the crash explorer's
   fault dimension), independent of the seeded [faults] config. *)

let check_nvm_line t lineno =
  if lineno < 0 || lineno * t.lw >= t.cfg.nvm_words then
    invalid_arg "Memsys: line not in NVMM"

(* Poisoning drops any cached copy first (without write-back), preserving
   the invariant that a poisoned line is never cached: every subsequent
   access must go through [fill] and hit the media check. *)
let poison_line t lineno =
  check_nvm_line t lineno;
  (match find_line t lineno with
  | Some line ->
      line.tag <- -1;
      line.dirty <- false;
      line.dirty_mask <- 0
  | None -> ());
  if not (bit_get t.poisoned_bits lineno) then begin
    bit_set t.poisoned_bits lineno;
    t.n_poisoned <- t.n_poisoned + 1
  end

let arm_transient_fault t lineno =
  check_nvm_line t lineno;
  (match find_line t lineno with
  | Some line ->
      line.tag <- -1;
      line.dirty <- false;
      line.dirty_mask <- 0
  | None -> ());
  if not (bit_get t.transient_bits lineno) then begin
    bit_set t.transient_bits lineno;
    t.n_transient <- t.n_transient + 1
  end

let is_poisoned t lineno =
  lineno >= 0 && lineno < t.nvm_lines && bit_get t.poisoned_bits lineno

let poisoned_lines t =
  let acc = ref [] in
  for lineno = t.nvm_lines - 1 downto 0 do
    if bit_get t.poisoned_bits lineno then acc := lineno :: !acc
  done;
  !acc

(* Clear a poisoned line, zeroing its media content (the stored bits are
   gone; what a real scrub or sector remap does). Emits [Media_scrub] so
   repairs are observable on the bus. *)
let scrub_line t lineno =
  check_nvm_line t lineno;
  if bit_get t.poisoned_bits lineno then begin
    bit_clear t.poisoned_bits lineno;
    t.n_poisoned <- t.n_poisoned - 1
  end;
  journal t lineno;
  store_fill_zero t.pmem (lineno * t.lw) t.lw;
  t.stats.Stats.media_scrubs <- t.stats.Stats.media_scrubs + 1;
  if has_subs t then emit t (Event.Media_scrub { line = lineno })
