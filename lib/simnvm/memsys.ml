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
   and a warm access allocates nothing. Lookups, victim scans and chunk
   blits are loops, not local closures; the costs handed to [charge] are
   boxed once, at [create]; the eviction decision compares an integer
   draw against an integer threshold; events are only constructed when
   the bus has a subscriber, and the stats counters are bumped inline
   instead of travelling through the bus. What does allocate: a line's
   word buffer and a backing chunk at their first touch, and the undo
   journal's growth while a snapshot is live. The differential oracle in
   [Refmodel] pins this kernel, word for word and event for event, to a
   naive executable specification.

   Media damage (poisoned lines, transient read faults, torn or flipped
   persisted words) enters only through the host hooks at the end of
   this file, which the crash explorer's fault plans drive. *)

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
   blits walk chunk boundaries. They run on every fill, write-back and
   journal save or undo, so they are loops over mutable locals rather
   than local recursive closures, which would be allocated at each call.
   The words move in typed [int array] loops: [Array.blit] into an array
   that has left the minor heap runs OCaml 5's write barrier on every
   word, which ints never need. *)
let store_blit_in (s : store) pos (src : int array) srcpos len =
  let pos = ref pos and srcpos = ref srcpos and len = ref len in
  while !len > 0 do
    let c = chunk_for_write s (!pos lsr chunk_shift) in
    let off = !pos land chunk_mask in
    let n = Int.min !len (chunk_words - off) in
    let from = !srcpos in
    for i = 0 to n - 1 do
      c.(off + i) <- src.(from + i)
    done;
    pos := !pos + n;
    srcpos := !srcpos + n;
    len := !len - n
  done

let store_blit_out (s : store) pos (dst : int array) dstpos len =
  let pos = ref pos and dstpos = ref dstpos and len = ref len in
  while !len > 0 do
    let c = s.(!pos lsr chunk_shift) in
    let off = !pos land chunk_mask in
    let n = Int.min !len (chunk_words - off) in
    let into = !dstpos in
    for i = 0 to n - 1 do
      dst.(into + i) <- c.(off + i)
    done;
    pos := !pos + n;
    dstpos := !dstpos + n;
    len := !len - n
  done

let store_fill_zero (s : store) pos len =
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let k = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = Int.min !len (chunk_words - off) in
    if s.(k) != zero_chunk then Array.fill s.(k) off n 0;
    pos := !pos + n;
    len := !len - n
  done

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

(* The volatile state: what a power failure loses and what [suspend]
   swaps out while the memory serves a nested recovery. One record of
   them is the world's, the other the spare the recoveries run on;
   [suspend] and [resume] exchange the two by swapping fields, so
   neither copies a line. *)
type volatile = {
  mutable v_lines : line array;
  mutable v_stamp : int;
  mutable v_dram : store;
  mutable v_fills : int array;
  mutable v_count : store;
  mutable v_pos : int;
  mutable v_poisoned : Bytes.t;
  mutable v_n_poisoned : int;
  mutable v_transient : Bytes.t;
  mutable v_n_transient : int;
}

(* What [suspend] sets aside and [resume] puts back: the world's volatile
   state (swapped out, so this holds the world's while suspended and the
   spare's otherwise), the eviction RNG and the three hooks. Allocated at
   a memory's first [suspend] and reused by every later one. *)
type parked = {
  p_vol : volatile;
  p_rng : Rng.t;
  mutable p_charge : float -> unit;
  mutable p_tid : unit -> int;
  mutable p_bus : Event.bus;
  p_private_bus : Event.bus; (* what the memory publishes on meanwhile *)
}

type t = {
  cfg : config;
  pmem : store; (* the persistent NVMM image *)
  mutable dram : store;
  mutable lines : line array; (* sets * ways, row-major by set *)
  mutable stamp : int;
  rng : Rng.t;
  stats : Stats.t; (* bumped inline on the hot path, not through the bus *)
  mutable bus : Event.bus; (* the world's bus once Env.make couples it *)
  mutable charge : float -> unit;
  mutable current_tid : unit -> int;
  (* The costs [charge] receives, copied out of the flat [Latency.t] (and
     the clean-line clwb fraction computed) once at [create]: each field
     of this mixed record holds its float boxed, so passing one to the
     hook allocates nothing, where reading [cfg.latency] would box a fresh
     float per charge. *)
  hit_ns : float;
  store_extra_ns : float;
  dram_miss_ns : float;
  nvm_miss_ns : float;
  dram_wb_ns : float;
  nvm_wb_ns : float;
  clwb_ns : float;
  clean_clwb_ns : float;
  sfence_ns : float;
  evict_below : int; (* see [evict_threshold]; 0 = never evict *)
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
  (* Ring of the line numbers of recent fills, in fill order; entries
     not written since the ring was last emptied are -1. *)
  mutable recent_fills : int array;
  mutable recent_count : store; (* line -> occurrences in the ring *)
  mutable recent_pos : int;
  (* Faulty-media state: poisoned NVMM lines (fills raise until scrubbed)
     and armed one-shot transient read faults, as bitsets over the NVMM
     line numbers with element counts for the fast emptiness test. Both
     stay empty unless a host hook plants faults. *)
  mutable poisoned_bits : Bytes.t;
  mutable n_poisoned : int;
  mutable transient_bits : Bytes.t;
  mutable n_transient : int;
  (* Undo journal of the live snapshot ([snap_live] is its id, 0 = none
     live): the NVMM lines written since the snapshot or its last
     restore, as a sparse set — line [l] is journaled iff
     [i = jr_slot.(l)] is below [jr_count] and [jr_lines.(i) = l] — with
     the line's old words at [jr_words.(i * lw)]. Emptying it is
     resetting the count. *)
  mutable snap_seq : int; (* ids handed out so far *)
  mutable snap_live : int;
  jr_slot : store;
  mutable jr_lines : int array;
  mutable jr_words : int array;
  mutable jr_count : int;
  mutable parked : parked option; (* [suspend]'s buffers, once allocated *)
  mutable suspended : bool;
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

(* [u / 2^53 < r] holds exactly when [u < ⌈r·2^53⌉] for a 53-bit draw [u]
   (the division and the product are exact power-of-two scalings), so the
   eviction decision compares integers and every decision stays the one
   [Rng.float t.rng < evict_rate] made. A rate that is not positive never
   draws. *)
let evict_threshold r =
  if not (r > 0.0) then 0
  else if r >= 1.0 then max_int
  else int_of_float (Float.ceil (Float.ldexp r 53))

let log2 n =
  let rec go p acc = if p >= n then acc else go (2 * p) (acc + 1) in
  go 1 0

let mk_line _ =
  {
    tag = -1;
    data = no_data;
    dirty = false;
    dirty_mask = 0;
    lru = 0;
    last_writer = -1;
  }

let create cfg =
  if cfg.nvm_words mod cfg.line_words <> 0 then
    invalid_arg "Memsys.create: nvm_words must be line-aligned";
  if cfg.line_words > 62 then
    invalid_arg "Memsys.create: line_words must fit a dirty bitmask";
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
    hit_ns = cfg.latency.Latency.cache_hit_ns;
    store_extra_ns = cfg.latency.Latency.store_extra_ns;
    dram_miss_ns = cfg.latency.Latency.dram_miss_ns;
    nvm_miss_ns = cfg.latency.Latency.nvm_miss_ns;
    dram_wb_ns = cfg.latency.Latency.dram_writeback_ns;
    nvm_wb_ns = cfg.latency.Latency.nvm_writeback_ns;
    clwb_ns = cfg.latency.Latency.clwb_ns;
    clean_clwb_ns = cfg.latency.Latency.clwb_ns /. 8.0;
    sfence_ns = cfg.latency.Latency.sfence_ns;
    evict_below = evict_threshold cfg.evict_rate;
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
    snap_seq = 0;
    snap_live = 0;
    jr_slot = store_make nvm_lines;
    jr_lines = [||];
    jr_words = [||];
    jr_count = 0;
    parked = None;
    suspended = false;
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
   whole-line and partial write-back, [poke_persisted], [scrub_line] —
   first calls [journal], which saves the line's old words on its first
   write since the snapshot or the last restore. [restore] copies exactly
   those lines back, so installing an image costs the lines recovery
   wrote, not the NVMM size. Without a live snapshot a write-back pays
   one integer test. *)

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

let[@inline] journal t lineno = if t.snap_live > 0 then journal_line t lineno

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

(* Hot-path lookup: the way index of [lineno] in its set, or -1. A loop,
   so neither a hit nor a miss allocates (no option, no scan closure). *)
let[@inline] find_slot t lineno =
  let base = set_of t lineno * t.ways in
  let lines = t.lines in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && (Array.unsafe_get lines !i).tag <> lineno do
    incr i
  done;
  if !i < stop then !i else -1

(* Cold-path wrapper for the host/test hooks. *)
let find_line t lineno =
  match find_slot t lineno with -1 -> None | i -> Some t.lines.(i)

(* Victim: the first invalid way if any, else the least recently used
   (the first of equals). *)
let victim t lineno =
  let base = set_of t lineno * t.ways in
  let best = ref t.lines.(base) in
  let i = ref 0 in
  while !i < t.ways do
    let line = t.lines.(base + !i) in
    if line.tag = -1 then begin
      best := line;
      i := t.ways
    end
    else begin
      if line.lru < !best.lru then best := line;
      incr i
    end
  done;
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
  let line = victim t lineno in
  if line.tag >= 0 && line.dirty then begin
    let nvm = write_back t line in
    t.charge (if nvm then t.nvm_wb_ns else t.dram_wb_ns)
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
    t.charge (if prefetched then prefetched_miss_ns else t.nvm_miss_ns)
  else t.charge (if prefetched then prefetched_miss_ns else t.dram_miss_ns);
  line

let lookup t addr =
  let lineno = line_of t addr in
  let slot = find_slot t lineno in
  let line =
    if slot >= 0 then begin
      let line = Array.unsafe_get t.lines slot in
      t.stats.Stats.hits <- t.stats.Stats.hits + 1;
      if has_subs t then emit t (Event.Hit { addr });
      t.charge t.hit_ns;
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
  if t.evict_below > 0 && Rng.bits53 t.rng < t.evict_below then begin
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
  t.charge t.store_extra_ns;
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
    t.charge t.clwb_ns
  end
  else
    (* clwb of a clean or absent line: issue cost only. *)
    t.charge t.clean_clwb_ns

let psync t =
  t.stats.Stats.psyncs <- t.stats.Stats.psyncs + 1;
  if has_subs t then emit t (Event.Psync { tid = t.current_tid () });
  t.charge t.sfence_ns

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
   is perturbed, so a subscriber-driven pilot run and the checking run
   observe identical event sequences whether or not an explorer is
   watching. [restore] runs only between [suspend] and [resume] (or after
   a crash), and [resume] puts back everything it reset. *)

(* Logical (cache-coherent) view of a word, bypassing cost and events. *)
let peek t addr =
  check_addr t addr;
  match find_line t (line_of t addr) with
  | Some line -> line.data.(off_of t addr)
  | None ->
      if is_nvm t addr then store_get t.pmem addr
      else store_get t.dram (addr - t.cfg.nvm_words)

type dirty_line = { lineno : int; data : int array; mask : int }

(* Dirtiness first: most lines are clean, and no invalid line is dirty. *)
let[@inline] dirty_nvm t line =
  line.dirty && line.tag >= 0 && is_nvm t (line.tag * t.lw)

let dirty_nvm_lines t =
  let acc = ref [] in
  for i = Array.length t.lines - 1 downto 0 do
    let line = t.lines.(i) in
    if dirty_nvm t line then
      acc :=
        { lineno = line.tag; data = Array.copy line.data; mask = line.dirty_mask }
        :: !acc
  done;
  !acc

let fold_dirty_nvm t f acc =
  let acc = ref acc in
  for i = 0 to Array.length t.lines - 1 do
    let line = t.lines.(i) in
    if dirty_nvm t line then acc := f !acc line.tag line.dirty_mask line.data
  done;
  !acc

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
  t.snap_seq <- t.snap_seq + 1;
  t.snap_live <- t.snap_seq;
  t.jr_count <- 0;
  { owner = t; id = t.snap_seq }

let check_live t s fn =
  if s.owner != t || s.id <> t.snap_live then
    invalid_arg ("Memsys." ^ fn ^ ": not the live snapshot of this memory")

(* Copy every journaled line back and empty the journal. *)
let undo_journal t =
  let lw = t.lw in
  for i = 0 to t.jr_count - 1 do
    store_blit_in t.pmem (t.jr_lines.(i) * lw) t.jr_words (i * lw) lw
  done;
  t.jr_count <- 0

let invalidate line =
  line.tag <- -1;
  line.dirty <- false;
  line.dirty_mask <- 0;
  line.last_writer <- -1

(* Drop the volatile state: invalidate every cache line without
   write-back, zero the DRAM, empty the prefetch ring and clear the
   planted faults. Only [fill] makes a line valid, and it records the
   line in the ring; only [create] and this reset empty the ring, and
   both leave every line invalid. So every valid line was filled since
   the ring was last emptied, and while the ring has not wrapped (the
   entry at [recent_pos] was never written) its entries name them all:
   the reset then costs the fills since the last one, not the cache
   geometry. A wrapped ring falls back to a sweep of every line and
   entry. *)
let reset_volatile t =
  let fills = t.recent_fills in
  let wrapped = fills.(t.recent_pos) >= 0 in
  if wrapped then Array.iter invalidate t.lines;
  (* Empty the ring entry by entry: clearing [recent_count] wholesale
     would drop its chunks and re-materialise them on the next miss. *)
  for i = 0 to (if wrapped then prefetch_window else t.recent_pos) - 1 do
    let l = fills.(i) in
    if l >= 0 then begin
      if not wrapped then begin
        let slot = find_slot t l in
        if slot >= 0 then invalidate t.lines.(slot)
      end;
      store_add t.recent_count l (-1);
      fills.(i) <- -1
    end
  done;
  t.recent_pos <- 0;
  store_clear t.dram;
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

let restore t s =
  check_live t s "restore";
  undo_journal t;
  reset_volatile t

(* Suspend and resume: a running world's memory serves the crash
   explorer's recoveries in place. [suspend] swaps the world's volatile
   state for the spare and journals from the current image; each
   recovery then starts from [restore], which resets the spare; [resume]
   rewinds the image once more and swaps the world's state back, so the
   world runs on from exactly the state it published its event in. The
   spare keeps what the last recovery left in it until the next
   [restore]. *)

let make_parked t =
  {
    p_vol =
      {
        v_lines = Array.map mk_line t.lines;
        v_stamp = 0;
        v_dram = store_make t.cfg.dram_words;
        v_fills = Array.make prefetch_window (-1);
        v_count = store_make (t.total_lines + 1);
        v_pos = 0;
        v_poisoned = Bytes.make (Bytes.length t.poisoned_bits) '\000';
        v_n_poisoned = 0;
        v_transient = Bytes.make (Bytes.length t.transient_bits) '\000';
        v_n_transient = 0;
      };
    p_rng = Rng.create 0;
    p_charge = no_charge;
    p_tid = no_tid;
    p_bus = t.bus;
    p_private_bus = Event.create_bus ();
  }

let swap_volatile t v =
  let lines = t.lines in
  t.lines <- v.v_lines;
  v.v_lines <- lines;
  let stamp = t.stamp in
  t.stamp <- v.v_stamp;
  v.v_stamp <- stamp;
  let dram = t.dram in
  t.dram <- v.v_dram;
  v.v_dram <- dram;
  let fills = t.recent_fills in
  t.recent_fills <- v.v_fills;
  v.v_fills <- fills;
  let count = t.recent_count in
  t.recent_count <- v.v_count;
  v.v_count <- count;
  let pos = t.recent_pos in
  t.recent_pos <- v.v_pos;
  v.v_pos <- pos;
  let bits = t.poisoned_bits and n = t.n_poisoned in
  t.poisoned_bits <- v.v_poisoned;
  t.n_poisoned <- v.v_n_poisoned;
  v.v_poisoned <- bits;
  v.v_n_poisoned <- n;
  let bits = t.transient_bits and n = t.n_transient in
  t.transient_bits <- v.v_transient;
  t.n_transient <- v.v_n_transient;
  v.v_transient <- bits;
  v.v_n_transient <- n

let suspend t =
  if t.suspended then invalid_arg "Memsys.suspend: already suspended";
  let p =
    match t.parked with
    | Some p -> p
    | None ->
        let p = make_parked t in
        t.parked <- Some p;
        p
  in
  swap_volatile t p.p_vol;
  Rng.blit t.rng p.p_rng;
  p.p_charge <- t.charge;
  p.p_tid <- t.current_tid;
  p.p_bus <- t.bus;
  t.charge <- no_charge;
  t.current_tid <- no_tid;
  t.bus <- p.p_private_bus;
  t.suspended <- true;
  snapshot t

let resume t s =
  if not t.suspended then invalid_arg "Memsys.resume: not suspended";
  check_live t s "resume";
  undo_journal t;
  let p = Option.get t.parked in
  swap_volatile t p.p_vol;
  Rng.blit p.p_rng t.rng;
  t.charge <- p.p_charge;
  t.current_tid <- p.p_tid;
  t.bus <- p.p_bus;
  (* The world's own write-backs are not journaled. *)
  t.snap_live <- 0;
  t.suspended <- false

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
   fault dimension, [Crashtest.Faultplan]). *)

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
