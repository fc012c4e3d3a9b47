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

   Hot-path discipline: the cache is five flat arrays indexed by slot
   (tags, dirty masks, LRU stamps, last writers, and all slots' words in
   one), so a lookup scans a set's tags in adjacent words; a bitset over
   the slots indexes the dirty ones, so a sweep of the dirty lines costs
   them and a word per 32 slots, not the cache geometry; the
   prefetcher counts its fill ring's lines in a small open-addressing
   table; set/offset arithmetic uses precomputed shifts and masks when
   the geometry is a power of two. Lookups, victim scans and chunk
   blits are loops, not local closures; the costs handed to [charge]
   are boxed once, at [create]; the eviction decision compares an
   integer draw against an integer threshold; events are only
   constructed when the bus has a subscriber, and the stats counters
   are bumped inline instead of travelling through the bus. An access
   allocates nothing but a backing chunk, at the first write-back into
   it; the undo journal also grows while a snapshot is live. The differential oracle
   in [Refmodel] pins this kernel, word for word and event for event,
   to a naive executable specification.

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

(* The volatile state: what a power failure loses and what [suspend]
   swaps out while the memory serves a nested recovery. One record of
   them is the world's, the other the spare the recoveries run on;
   [suspend] and [resume] exchange the two by swapping fields, so
   neither copies a line. *)
type volatile = {
  mutable v_tags : int array;
  mutable v_masks : int array;
  mutable v_dirty : int array;
  mutable v_lrus : int array;
  mutable v_writers : int array;
  mutable v_words : int array;
  mutable v_stamp : int;
  mutable v_dram : store;
  mutable v_fills : int array;
  mutable v_table : int array;
  mutable v_live : int;
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
  (* The cache, one slot per way, row-major by set: [set * ways + way].
     A slot is valid when its tag names a line (-1 = invalid) and dirty
     exactly when its mask of dirty words is nonzero (so an invalid slot
     is clean); its words are [words.(slot * lw) .. + lw - 1]. *)
  mutable tags : int array;
  mutable masks : int array;
  (* The dirty-slot index: bit [slot land 31] of [dirty.(slot lsr 5)] is
     set exactly when [masks.(slot)] is nonzero. Every write of a mask
     keeps it so, and every sweep of the dirty lines walks it in slot
     order ([next_dirty]). *)
  mutable dirty : int array;
  mutable lrus : int array;
  mutable writers : int array; (* thread that last wrote; -1 = shared *)
  mutable words : int array;
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
  limit : int; (* one past the last address: nvm_words + dram_words *)
  (* Ring of the line numbers of recent fills, in fill order; entries
     not written since the ring was last emptied are -1. The table
     counts each line's occurrences in it (see [recent_add]), and
     [recent_live] counts the table's keys. *)
  mutable recent_fills : int array;
  mutable recent_table : int array;
  mutable recent_live : int;
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

(* The ring's line counts live in an open-addressing table of
   [table_slots] (key, count) pairs, a key of -1 marking a free slot. A
   line's probe run starts at a multiplicative hash of it and walks on,
   masked, to the line or to a free slot. The ring names at most
   [prefetch_window] distinct lines, so at most a quarter of the slots
   is ever taken and probe runs stay short. *)
let table_slots = 4 * prefetch_window
let table_mask = table_slots - 1

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

(* The dirty-slot index holds 32 slots per word, so a slot's word and bit
   are a shift and a mask away. Its bits are set and cleared inline, with
   no call: [mark_dirty] runs in every store that dirties a clean line. *)
let[@inline] mark_dirty t slot =
  let d = t.dirty and i = slot lsr 5 in
  Array.unsafe_set d i (Array.unsafe_get d i lor (1 lsl (slot land 31)))

let[@inline] mark_clean t slot =
  let d = t.dirty and i = slot lsr 5 in
  Array.unsafe_set d i (Array.unsafe_get d i land lnot (1 lsl (slot land 31)))

(* The position of the lowest set bit of [b], a nonzero index word, by
   halving the range it lies in. *)
let[@inline] lowest_bit b =
  let b = b land -b in
  let n = if b land 0xFFFF = 0 then 16 else 0 in
  let n = if b land (0xFF lsl n) = 0 then n + 8 else n in
  let n = if b land (0xF lsl n) = 0 then n + 4 else n in
  let n = if b land (0x3 lsl n) = 0 then n + 2 else n in
  if b land (0x1 lsl n) = 0 then n + 1 else n

(* The first dirty slot at or after [slot], or -1: the first nonzero
   index word from [slot]'s on, its bits below [slot] masked off. A
   sweep is a loop over it, so it allocates nothing, and it may clean
   the slot it stands on (the next call re-reads the word). *)
let next_dirty t slot =
  let d = t.dirty in
  let n = Array.length d in
  let i = ref (slot lsr 5) in
  let bits = ref (if !i < n then d.(!i) land (-1 lsl (slot land 31)) else 0) in
  while !bits = 0 && !i + 1 < n do
    incr i;
    bits := Array.unsafe_get d !i
  done;
  if !bits = 0 then -1 else (!i lsl 5) + lowest_bit !bits

let create cfg =
  if cfg.nvm_words mod cfg.line_words <> 0 then
    invalid_arg "Memsys.create: nvm_words must be line-aligned";
  if cfg.line_words > 62 then
    invalid_arg "Memsys.create: line_words must fit a dirty bitmask";
  let lw = cfg.line_words in
  let nvm_lines = cfg.nvm_words / lw in
  let slots = cfg.sets * cfg.ways in
  {
    cfg;
    pmem = store_make cfg.nvm_words;
    dram = store_make cfg.dram_words;
    tags = Array.make slots (-1);
    masks = Array.make slots 0;
    dirty = Array.make ((slots + 31) lsr 5) 0;
    lrus = Array.make slots 0;
    writers = Array.make slots (-1);
    words = Array.make (slots * lw) 0;
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
    limit = cfg.nvm_words + cfg.dram_words;
    recent_fills = Array.make prefetch_window (-1);
    recent_table = Array.make (2 * table_slots) (-1);
    recent_live = 0;
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

(* Every access checks its address, so the test is inlined into each and
   reads one field; the message is formatted out of line. *)
let[@inline never] out_of_range addr =
  invalid_arg (Printf.sprintf "Memsys: address %d out of range" addr)

let[@inline] check_addr t addr =
  if addr < 0 || addr >= t.limit then out_of_range addr

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
let write_back ?(complete = true) t slot =
  let lineno = t.tags.(slot) in
  let base = lineno * t.lw and src = slot * t.lw in
  let nvm = is_nvm t base in
  if t.cfg.pcso || complete then begin
    if nvm then begin
      journal t lineno;
      store_blit_in t.pmem base t.words src t.lw
    end
    else store_blit_in t.dram (base - t.cfg.nvm_words) t.words src t.lw;
    t.masks.(slot) <- 0;
    mark_clean t slot
  end
  else begin
    let dirty = t.masks.(slot) in
    let mask = ref dirty in
    for off = 0 to t.lw - 1 do
      if dirty land (1 lsl off) <> 0 && Rng.bool t.rng then begin
        backing_write t lineno off t.words.(src + off);
        mask := !mask land lnot (1 lsl off)
      end
    done;
    t.masks.(slot) <- !mask;
    if !mask = 0 then mark_clean t slot
  end;
  (let s = t.stats in
   if nvm then s.Stats.nvm_writebacks <- s.Stats.nvm_writebacks + 1
   else s.Stats.dram_writebacks <- s.Stats.dram_writebacks + 1);
  if has_subs t then
    emit t
      (Event.Writeback
         { backing = (if nvm then Event.Nvm else Event.Dram); line = lineno });
  nvm

(* Drop a slot's line without write-back. *)
let invalidate t slot =
  t.tags.(slot) <- -1;
  t.masks.(slot) <- 0;
  mark_clean t slot;
  t.writers.(slot) <- -1

let invalidate_all t =
  let n = Array.length t.tags in
  Array.fill t.tags 0 n (-1);
  Array.fill t.masks 0 n 0;
  Array.fill t.dirty 0 (Array.length t.dirty) 0;
  Array.fill t.writers 0 n (-1)

(* Set index uses a multiplicative hash, as real LLCs hash addresses to
   slices: without it, regular allocation strides (per-thread heap chunks)
   alias into a handful of sets and thrash artificially. *)
let[@inline] set_of t lineno =
  let h = (lineno * 0x9E3779B1) lsr 11 land max_int in
  if t.sets_mask >= 0 then h land t.sets_mask else h mod t.cfg.sets

(* Hot-path lookup: the slot of [lineno], or -1. A loop over the set's
   adjacent tags, so neither a hit nor a miss allocates. The set's slots
   are in bounds by construction, as is every slot this and [victim]
   return: the accesses below index by them unchecked. *)
let[@inline] find_slot t lineno =
  let base = set_of t lineno * t.ways in
  let tags = t.tags in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get tags !i <> lineno do
    incr i
  done;
  if !i < stop then !i else -1

(* Victim: the first invalid way if any, else the least recently used
   (the first of equals). *)
let victim t lineno =
  let base = set_of t lineno * t.ways in
  let tags = t.tags and lrus = t.lrus in
  let stop = base + t.ways in
  let best = ref base and i = ref base in
  while !i < stop do
    let s = !i in
    if Array.unsafe_get tags s = -1 then begin
      best := s;
      i := stop
    end
    else begin
      if Array.unsafe_get lrus s < Array.unsafe_get lrus !best then best := s;
      incr i
    end
  done;
  !best

let[@inline] table_home lineno = (lineno * 0x9E3779B1) lsr 16 land table_mask

(* The slot holding [lineno], or the free slot that ends its probe run
   (one always comes: at most [prefetch_window] keys are live). *)
let table_probe tbl lineno =
  let i = ref (table_home lineno) in
  while
    let k = Array.unsafe_get tbl (2 * !i) in
    k <> lineno && k >= 0
  do
    i := (!i + 1) land table_mask
  done;
  !i

let[@inline] recent_mem t lineno =
  let tbl = t.recent_table in
  Array.unsafe_get tbl (2 * table_probe tbl lineno) = lineno

let recent_add t lineno =
  let tbl = t.recent_table in
  let i = 2 * table_probe tbl lineno in
  if tbl.(i) = lineno then tbl.(i + 1) <- tbl.(i + 1) + 1
  else begin
    (* A deletion that left a hole in a probe run would strand the keys
       behind it: never found again, never removed, they would fill the
       table until a probe never ends. Counting the keys (and removing
       only keys that are there) makes that fail here instead. *)
    t.recent_live <- t.recent_live + 1;
    assert (t.recent_live <= prefetch_window);
    tbl.(i) <- lineno;
    tbl.(i + 1) <- 1
  end

(* Remove one occurrence of [lineno], which the ring holds. A key that
   drops to zero leaves by backward shift: each later key of the probe
   run whose home does not lie between the hole and itself moves into
   the hole, so no run is ever broken and no tombstone is needed. *)
let recent_remove t lineno =
  let tbl = t.recent_table in
  let i = table_probe tbl lineno in
  assert (tbl.(2 * i) = lineno);
  let n = tbl.((2 * i) + 1) in
  if n > 1 then tbl.((2 * i) + 1) <- n - 1
  else begin
    let hole = ref i and j = ref ((i + 1) land table_mask) in
    while tbl.(2 * !j) >= 0 do
      let k = tbl.(2 * !j) in
      if (!j - table_home k) land table_mask >= (!j - !hole) land table_mask
      then begin
        tbl.(2 * !hole) <- k;
        tbl.((2 * !hole) + 1) <- tbl.((2 * !j) + 1);
        hole := !j
      end;
      j := (!j + 1) land table_mask
    done;
    tbl.(2 * !hole) <- -1;
    t.recent_live <- t.recent_live - 1
  end

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

(* Bring a line into the cache, returning its slot. Charges miss cost (and
   the victim write-back cost, which delays the fill) via the charge
   hook. The victim is clean once written back (a complete write-back
   clears its index bit), so the new line's zero mask leaves the index
   as it is. *)
let fill t lineno =
  check_media t lineno;
  let slot = victim t lineno in
  if Array.unsafe_get t.masks slot <> 0 then begin
    let nvm = write_back t slot in
    t.charge (if nvm then t.nvm_wb_ns else t.dram_wb_ns)
  end;
  let base = lineno * t.lw in
  Array.unsafe_set t.tags slot lineno;
  Array.unsafe_set t.masks slot 0;
  Array.unsafe_set t.writers slot (-1);
  let nvm = is_nvm t base in
  if nvm then store_blit_out t.pmem base t.words (slot * t.lw) t.lw
  else store_blit_out t.dram (base - t.cfg.nvm_words) t.words (slot * t.lw) t.lw;
  let prefetched = lineno > 0 && recent_mem t (lineno - 1) in
  (let pos = t.recent_pos in
   let old = t.recent_fills.(pos) in
   if old >= 0 then recent_remove t old;
   t.recent_fills.(pos) <- lineno;
   recent_add t lineno;
   t.recent_pos <- (pos + 1) land prefetch_mask);
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
  slot

let lookup t addr =
  let lineno = line_of t addr in
  let slot = find_slot t lineno in
  let slot =
    if slot >= 0 then begin
      t.stats.Stats.hits <- t.stats.Stats.hits + 1;
      if has_subs t then emit t (Event.Hit { addr });
      t.charge t.hit_ns;
      slot
    end
    else fill t lineno
  in
  t.stamp <- t.stamp + 1;
  Array.unsafe_set t.lrus slot t.stamp;
  slot

(* Background hardware may write any dirty line back at any moment: with
   probability [evict_rate] per store, persist one random dirty line. Not
   charged to the running thread (it is asynchronous hardware activity).
   This is what creates the partial-persistence hazard that undo logging
   must defend against. *)
let spontaneous_eviction t =
  if t.evict_below > 0 && Rng.bits53 t.rng < t.evict_below then begin
    let slot = Rng.int t.rng (Array.length t.tags) in
    if t.masks.(slot) <> 0 then begin
      ignore (write_back ~complete:false t slot);
      t.stats.Stats.spontaneous_evictions <-
        t.stats.Stats.spontaneous_evictions + 1;
      if has_subs t then emit t (Event.Eviction { line = t.tags.(slot) })
    end
  end

let load t addr =
  check_addr t addr;
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  if has_subs t then emit t (Event.Load { tid = t.current_tid (); addr });
  let slot = lookup t addr in
  let me = t.current_tid () in
  let writer = Array.unsafe_get t.writers slot in
  if writer >= 0 && writer <> me then begin
    t.charge coherence_read_ns;
    Array.unsafe_set t.writers slot (-1)
  end;
  Array.unsafe_get t.words ((slot * t.lw) + off_of t addr)

let store t addr v =
  check_addr t addr;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  if has_subs t then emit t (Event.Store { tid = t.current_tid (); addr });
  let slot = lookup t addr in
  let me = t.current_tid () in
  if me >= 0 && Array.unsafe_get t.writers slot <> me then
    t.charge coherence_write_ns;
  if me >= 0 then Array.unsafe_set t.writers slot me;
  let off = off_of t addr in
  Array.unsafe_set t.words ((slot * t.lw) + off) v;
  let mask = Array.unsafe_get t.masks slot in
  if mask = 0 then mark_dirty t slot;
  Array.unsafe_set t.masks slot (mask lor (1 lsl off));
  t.charge t.store_extra_ns;
  spontaneous_eviction t

let pwb t addr =
  check_addr t addr;
  let slot = find_slot t (line_of t addr) in
  let dirty = slot >= 0 && t.masks.(slot) <> 0 in
  t.stats.Stats.pwbs <- t.stats.Stats.pwbs + 1;
  if has_subs t then
    emit t (Event.Pwb { tid = t.current_tid (); addr; dirty });
  if dirty then begin
    ignore (write_back t slot);
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
  match find_slot t (line_of t addr) with
  | -1 -> ()
  | slot ->
      if t.masks.(slot) <> 0 then ignore (write_back t slot);
      invalidate t slot

(* Drop the line holding [addr] without writing it back: used by tests to
   guarantee a store did NOT persist. *)
let drop_line t addr =
  check_addr t addr;
  match find_slot t (line_of t addr) with -1 -> () | slot -> invalidate t slot

let is_cached_dirty t addr =
  match find_slot t (line_of t addr) with
  | -1 -> false
  | slot -> t.masks.(slot) <> 0

(* The first dirty slot at or after [slot] that caches an NVMM line, or
   -1. *)
let rec next_dirty_nvm t slot =
  let s = next_dirty t slot in
  if s < 0 || is_nvm t (t.tags.(s) * t.lw) then s else next_dirty_nvm t (s + 1)

let crash t =
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  if has_subs t then emit t (Event.Crash { eadr = t.cfg.eadr });
  if t.cfg.eadr then begin
    (* eADR: the cache is in the persistent domain; dirty NVMM lines are
       drained by the battery-backed flush on power failure, in slot
       order. *)
    let s = ref (next_dirty_nvm t 0) in
    while !s >= 0 do
      ignore (write_back t !s);
      s := next_dirty_nvm t (!s + 1)
    done
  end;
  invalidate_all t;
  store_clear t.dram

let persisted t addr =
  if addr < 0 || addr >= t.cfg.nvm_words then
    invalid_arg "Memsys.persisted: address not in NVMM";
  store_get t.pmem addr

let flush_all t =
  let s = ref (next_dirty t 0) in
  while !s >= 0 do
    ignore (write_back t !s);
    s := next_dirty t (!s + 1)
  done

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
  match find_slot t (line_of t addr) with
  | -1 ->
      if is_nvm t addr then store_get t.pmem addr
      else store_get t.dram (addr - t.cfg.nvm_words)
  | slot -> t.words.((slot * t.lw) + off_of t addr)

type dirty_line = { lineno : int; data : int array; mask : int }

(* Both sweeps walk the index from slot 0 up: the list is built in
   place, front to back, so it costs its cells and nothing else. *)
let[@tail_mod_cons] rec dirty_nvm_from t slot =
  let slot = next_dirty_nvm t slot in
  if slot < 0 then []
  else
    {
      lineno = t.tags.(slot);
      data = Array.sub t.words (slot * t.lw) t.lw;
      mask = t.masks.(slot);
    }
    :: dirty_nvm_from t (slot + 1)

let dirty_nvm_lines t = dirty_nvm_from t 0

let fold_dirty_nvm t f acc =
  let acc = ref acc and s = ref (next_dirty_nvm t 0) in
  while !s >= 0 do
    let slot = !s in
    acc := f !acc t.tags.(slot) t.masks.(slot) t.words (slot * t.lw) t.lw;
    s := next_dirty_nvm t (slot + 1)
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
  if wrapped then invalidate_all t;
  for i = 0 to (if wrapped then prefetch_window else t.recent_pos) - 1 do
    let l = fills.(i) in
    if l >= 0 then begin
      if not wrapped then begin
        let slot = find_slot t l in
        if slot >= 0 then invalidate t slot
      end;
      recent_remove t l;
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
        v_tags = Array.make (Array.length t.tags) (-1);
        v_masks = Array.make (Array.length t.masks) 0;
        v_dirty = Array.make (Array.length t.dirty) 0;
        v_lrus = Array.make (Array.length t.lrus) 0;
        v_writers = Array.make (Array.length t.writers) (-1);
        v_words = Array.make (Array.length t.words) 0;
        v_stamp = 0;
        v_dram = store_make t.cfg.dram_words;
        v_fills = Array.make prefetch_window (-1);
        v_table = Array.make (2 * table_slots) (-1);
        v_live = 0;
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
  let a = t.tags in
  t.tags <- v.v_tags;
  v.v_tags <- a;
  let a = t.masks in
  t.masks <- v.v_masks;
  v.v_masks <- a;
  let a = t.dirty in
  t.dirty <- v.v_dirty;
  v.v_dirty <- a;
  let a = t.lrus in
  t.lrus <- v.v_lrus;
  v.v_lrus <- a;
  let a = t.writers in
  t.writers <- v.v_writers;
  v.v_writers <- a;
  let a = t.words in
  t.words <- v.v_words;
  v.v_words <- a;
  let stamp = t.stamp in
  t.stamp <- v.v_stamp;
  v.v_stamp <- stamp;
  let dram = t.dram in
  t.dram <- v.v_dram;
  v.v_dram <- dram;
  let fills = t.recent_fills in
  t.recent_fills <- v.v_fills;
  v.v_fills <- fills;
  let table = t.recent_table and live = t.recent_live in
  t.recent_table <- v.v_table;
  t.recent_live <- v.v_live;
  v.v_table <- table;
  v.v_live <- live;
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
  (match find_slot t lineno with -1 -> () | slot -> invalidate t slot);
  if not (bit_get t.poisoned_bits lineno) then begin
    bit_set t.poisoned_bits lineno;
    t.n_poisoned <- t.n_poisoned + 1
  end

let arm_transient_fault t lineno =
  check_nvm_line t lineno;
  (match find_slot t lineno with -1 -> () | slot -> invalidate t slot);
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
