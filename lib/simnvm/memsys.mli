(** Simulated memory system: a volatile set-associative cache in front of a
    persistent NVMM image and a volatile DRAM region.

    The address space is split: word addresses in [0, nvm_words) are
    NVMM-backed and survive {!crash}; addresses in
    [nvm_words, nvm_words + dram_words) are DRAM-backed and are lost.

    Write-back follows the x86 PCSO persistency model: a dirty line may be
    written back at any time (spontaneous eviction), and a write-back copies
    the line as a whole — so two stores to the same line never persist out of
    program order, which is the property In-Cache-Line Logging relies on.
    {!pwb} models [clwb] and {!psync} models [sfence].

    Latency costs are reported through a pluggable charge hook
    ({!set_charge}), which the scheduler binds to the virtual clock of the
    running simulated thread. *)

type config = {
  nvm_words : int;  (** words of persistent memory (line-aligned) *)
  dram_words : int;  (** words of volatile DRAM *)
  line_words : int;  (** words per cache line *)
  sets : int;  (** cache sets *)
  ways : int;  (** cache associativity *)
  latency : Latency.t;  (** cost model *)
  evict_rate : float;  (** per-store probability of a spontaneous eviction *)
  seed : int;  (** RNG seed for eviction *)
  eadr : bool;  (** cache in the persistent domain (paper section 6) *)
  pcso : bool;
      (** [true]: line-snapshot write-back (x86 PCSO). [false]: word-granular
          write-back ablation — a {e spontaneous} write-back persists a
          random subset of the line's dirty words (the rest stay dirty and
          cached), deliberately breaking same-line persist ordering.
          Explicit {!pwb} and capacity evictions still persist the whole
          line: the ablation weakens ordering, never durability, so
          explicitly-flushing systems stay correct under it. *)
}

val default_config : config
(** 8 MiB NVMM / 2 MiB DRAM address space, 512 KiB 8-way cache with 64-byte
    lines, Optane-like latencies, PCSO on, eADR off. *)

type t

val create : config -> t
(** Fresh memory system with a zeroed persistent image and an empty
    cache. The cache is allocated here whole: [sets * ways] slots of
    [line_words + 4] words, the index of dirty slots (a word per 32
    slots) and a 2 048-word prefetch count table.
    @raise Invalid_argument if [nvm_words] is not line-aligned. *)

val config : t -> config

val stats : t -> Stats.t
(** The counter record, bumped inline at every event site whether or not
    the bus has subscribers. Folding {!Stats.subscriber} over the events
    published in a window yields the same counts. *)

(** {2 Event bus}

    Every observable action is published as a typed {!Event.t} on the
    memory's bus; an access ([Load], [Store], [Pwb], [Psync]) is published
    before it lands, so a subscriber that raises stops it. A fresh memory
    publishes on a bus of its own; [Simsched.Env.make] couples it to the
    scheduler's bus with {!set_bus}, so one world has one stream. With no
    subscriber attached no event is even constructed: the stats counters
    cost one integer increment per event site, and a {!load}, {!store},
    {!pwb} or {!psync} allocates nothing but a backing chunk at the first
    write-back into it: the cache's arrays, its line words included, are
    allocated at {!create}. *)

val bus : t -> Event.bus
(** The bus this memory publishes on; attach with {!Event.subscribe}. *)

val set_bus : t -> Event.bus -> unit
(** Publish on another bus from now on (the world coupling of
    [Simsched.Env.make]); subscribers of the old bus stop seeing this
    memory. *)

val set_charge : t -> (float -> unit) -> unit
(** Install the hook that receives the nanosecond cost of each operation.
    Each cost is a float boxed once, at {!create}: a charge allocates
    only what the hook itself allocates. *)

val get_charge : t -> float -> unit
(** Current charge hook (used to save/restore around flusher-pool costing). *)

val set_tid_provider : t -> (unit -> int) -> unit
(** Install the hook identifying the running simulated thread (-1 when
    none). Enables the MESI-style coherence cost model: reading a line last
    written by a different thread pays a cache-to-cache transfer, writing a
    line not exclusively owned pays an invalidation round. *)

exception Media_error of { addr : int; line : int; transient : bool }
(** Raised by an access that misses into a poisoned (or transiently
    failing) NVMM line. [transient] faults fail exactly once and heal;
    poison persists until {!scrub_line}. The raise happens before any
    cache mutation, so a caught error leaves the cache untouched and the
    access can be retried. *)

val load : t -> Addr.t -> int
(** Read a word through the cache.
    @raise Media_error on a miss into a poisoned line. *)

val store : t -> Addr.t -> int -> unit
(** Write a word through the cache (write-allocate); may trigger a
    spontaneous eviction of some dirty line. *)

val pwb : t -> Addr.t -> unit
(** [clwb]: persist the line holding the address. Eager application is a
    legal conservative PCSO behaviour. *)

val psync : t -> unit
(** [sfence]: ordering fence (cost only, since {!pwb} applies eagerly). *)

val crash : t -> unit
(** Power failure: drop all volatile state (cache contents and the whole
    DRAM region). Under eADR, dirty NVMM lines are drained first, in slot
    order. *)

val persisted : t -> Addr.t -> int
(** Read the NVMM image directly, bypassing the cache (recovery-time and
    test-oracle view). @raise Invalid_argument outside the NVMM region. *)

val force_evict : t -> Addr.t -> unit
(** Deterministically write back and invalidate the line holding the address
    (test hook: force a chosen partial state into NVMM). *)

val drop_line : t -> Addr.t -> unit
(** Invalidate the line holding the address {e without} write-back (test
    hook: guarantee a store did not persist). *)

val is_cached_dirty : t -> Addr.t -> bool
(** Whether the line holding the address is cached and dirty. *)

val flush_all : t -> unit
(** Write back every dirty line, in slot order (test hook / clean
    shutdown). Like every sweep of the dirty lines ({!crash}'s eADR
    drain, {!dirty_nvm_lines}, {!fold_dirty_nvm}) it walks the memory's
    index of its dirty slots, so it costs the dirty lines plus one word
    read per 32 cache slots, not a pass over the cache. *)

(** {2 Crash-image hooks}

    Host-level accessors for the systematic crash explorer
    ([lib/crashtest]): none of them charges latency or emits an event, and
    none but {!restore} perturbs cache replacement state, so watched and
    unwatched runs stay bit-identical. The explorer checks a running
    world's crash images in place, with one path: at a crash boundary it
    {!suspend}s the memory, installs each adversarial image with
    {!restore} plus {!poke_persisted} (so an image costs the lines and
    fills the previous recovery made), recovers it, and finally
    {!resume}s the memory, which lets the world run on as if nothing had
    happened. None of the three copies a cache line: a memory keeps a
    spare set of volatile state, and suspend and resume swap it with the
    world's. *)

val peek : t -> Addr.t -> int
(** Logical (cache-coherent) view of a word: the cached copy if present,
    else the backing store. Free and event-silent, unlike {!load}. *)

type dirty_line = { lineno : int; data : int array; mask : int }
(** A dirty NVMM-backed cache line: its line number, a copy of its cached
    contents and the bitmask of dirty words. *)

val dirty_nvm_lines : t -> dirty_line list
(** Every dirty NVMM-backed line currently cached, in slot order (the
    order of the cache's [set * ways + way] slots). Capture {e before}
    {!crash}: this is the set of lines whose write-back a power failure
    may or may not have completed, i.e. the degrees of freedom of the
    adversarial crash-image enumeration. It walks the index of dirty
    slots (see {!flush_all}) and allocates only the list, its records
    and their copies of the words. *)

val fold_dirty_nvm :
  t -> ('a -> int -> int -> int array -> int -> int -> 'a) -> 'a -> 'a
(** [fold_dirty_nvm t f init] folds [f acc lineno mask words off lw]
    over the lines {!dirty_nvm_lines} lists, in its order, copying
    nothing: [words] is the cache's own word array, and the line's words
    are [words.(off)] to [words.(off + lw - 1)], [lw] being the line
    size. Read only those, only during the call: never write the array
    or keep it. With an immediate accumulator and a closed [f] it
    allocates nothing, and like {!dirty_nvm_lines} it costs the dirty
    lines, not the cache. *)

val image : t -> int array
(** Copy of the full persistent NVMM image: O(NVMM words), an oracle view
    for comparisons. The explorer rewinds with {!snapshot} and {!restore}
    instead. *)

type snapshot
(** A rewind point of the persistent image, kept as an undo journal rather
    than a copy: while a snapshot is live, the first write into an NVMM
    line — write-back (whole or partial), {!poke_persisted},
    {!scrub_line} — saves that line's old words. Being abstract, it cannot
    be changed behind the journal's back. *)

val snapshot : t -> snapshot
(** Start journaling from the current persistent image. O(1): nothing is
    copied. Any earlier snapshot of the same memory stops being live. *)

val restore : t -> snapshot -> unit
(** Rewind the persistent image to the snapshot by copying back each
    journaled line, then drop all volatile state: every cache line is
    invalidated without write-back, the DRAM is zeroed, the prefetch ring
    and its count table are emptied, and poisoned lines and armed
    transient faults are cleared. The snapshot stays live, so one crash
    point can be re-recovered under several adversarial images. Costs
    the lines written since the snapshot or the previous restore, plus
    the lines filled since the previous reset (the prefetch ring lists
    them while there were at most 256, and each is invalidated in its
    slot and removed from the table; beyond that, one pass over the
    cache's tag, mask and writer arrays) and the DRAM chunk table — not
    the NVMM size. On the crash-matrix benchmark's
    worlds a restore before a recovery takes about 0.2 µs.
    @raise Invalid_argument if the snapshot is not the live one of [t]. *)

val suspend : t -> snapshot
(** Set the running world's volatile state aside and return the live
    {!snapshot} of the current persistent image, so recoveries can run on
    this memory and the world can continue afterwards. The world's cache
    arrays (tags, dirty masks, the dirty-slot index, LRU stamps, last
    writers and line words), LRU clock, DRAM, prefetch ring with its count table and planted
    faults are swapped for a spare set of them, allocated at the memory's
    first suspend;
    the eviction RNG and the charge, thread-id and bus hooks are saved.
    Until {!resume} the memory publishes on a private bus and charges
    nothing, so nothing reaches the world's subscribers or clocks (a
    recovery's own scheduler may install its hooks meanwhile); the stats
    counters keep counting. Access the memory only after a {!restore}:
    until then it holds whatever the spare held, the last recovery's
    cache and DRAM. A suspend and resume pair moves no cache line and
    takes about 0.25 µs on the crash-matrix benchmark's worlds.
    @raise Invalid_argument if the memory is already suspended. *)

val resume : t -> snapshot -> unit
(** Rewind the persistent image to the snapshot, swap the world's
    volatile state back in and put back the RNG and the hooks: the
    memory is bit for bit what it was at the suspend, and the snapshot
    stops being live. The spare keeps what the recoveries left in it,
    for the next {!restore} to reset.
    @raise Invalid_argument if the memory is not suspended or the
    snapshot is not its live one. *)

val snapshot_persisted : snapshot -> Addr.t -> int
(** A word of the snapshot's image, whatever was written since.
    @raise Invalid_argument if the snapshot is no longer live or the
    address is outside the NVMM region. *)

val poke_persisted : t -> Addr.t -> int -> unit
(** Write one word directly into the NVMM image (adversarial-image
    construction; bypasses the cache entirely).
    @raise Invalid_argument outside the NVMM region. *)

(** {2 Fault-plan hooks}

    Plant media faults directly. These and {!poke_persisted} are the only
    way media damage enters the model: a {!crash} loses dirty lines but
    never damages what was persisted. The crash explorer's fault dimension
    ([Crashtest.Faultplan]) layers them on adversarial crash images.
    {!restore} clears all planted fault state. {!persisted}, {!peek} and
    {!image} are oracle views and deliberately bypass poison. *)

val poison_line : t -> int -> unit
(** Poison an NVMM line (by line number): every subsequent access that
    misses into it raises {!Media_error} until {!scrub_line}. Any cached
    copy is dropped without write-back first, so the poison is observed.
    @raise Invalid_argument outside the NVMM region. *)

val arm_transient_fault : t -> int -> unit
(** Arm a one-shot transient read fault on an NVMM line: the next miss
    into it raises {!Media_error} with [transient = true], then the line
    heals. @raise Invalid_argument outside the NVMM region. *)

val is_poisoned : t -> int -> bool

val poisoned_lines : t -> int list
(** Currently poisoned NVMM lines, sorted. *)

val scrub_line : t -> int -> unit
(** Clear a poisoned line and zero its media content (the stored bits are
    lost — what a real scrub or sector remap does); publishes
    [Media_scrub]. @raise Invalid_argument outside the NVMM region. *)
