(* File-backed persistence backend: the Simnvm.Backend contract over a
   memory-mapped file, built for real-process crash testing (lib/prockill
   SIGKILLs a child running against one of these).

   Durability model. mmap'd stores land in the kernel page cache, which
   survives the death of the writing process — a SIGKILL therefore cannot
   lose *any* mmap write, and a backend that stored straight through the
   mapping would make pwb/psync vacuously correct (the psync-elision
   mutant would be undetectable, and no InCLL property would ever be
   exercised). So the volatile half of PCSO is modelled process-locally: a
   plain OCaml mirror array plays the cache (it genuinely dies with the
   process), the mapping plays the medium, and only [psync] moves pending
   lines mirror -> mapping. pwb is lazy (marks the line pending, in issue
   order); psync performs the write-back. What the parent reopens after a
   kill is exactly the set of lines the child psync'd — plus any seeded
   spontaneous evictions — which is the PCSO crash-visible image.

   Line atomicity. PCSO write-backs copy a line as a snapshot; a word loop
   into the mapping is not SIGKILL-atomic (the kill can land between word
   stores). Each line write-back therefore goes through a one-slot journal
   in the file: data words, then the line number, then a checksum over
   both, then the home-location copy, then the slot is retired. A kill
   mid-journal leaves an uncertified slot (home line intact: the old
   snapshot); a kill mid-home-copy leaves a certified slot that [open_]
   replays to completion. Either way every line is durably old or durably
   new, never torn — the invariant In-Cache-Line Logging relies on.

   Honesty caveat (see DESIGN.md §14): because the page cache absorbs the
   mappings' stores, SIGKILL exercises process-crash durability, not
   power-failure durability. OCaml's Unix module exposes no msync, so
   against power loss this backend orders nothing; the harness only makes
   claims about killed processes.

   File layout, in 8-byte words:
     [0..15]   header: magic, version, geometry, meta, FNV-1a checksum
     [16..17+lw] journal slot: lineno, checksum, lw data words
     [..]      the NVMM image, nvm_words words
   The DRAM region exists only in the mirror (volatile scratch). *)

module Event = Simnvm.Event

type config = {
  line_words : int;
  nvm_words : int;
  dram_words : int;
  latency : Simnvm.Latency.t;
  evict_rate : float;
  seed : int;
}

let default_config =
  {
    line_words = Simnvm.Addr.default_line_words;
    nvm_words = 1 lsl 20;
    dram_words = 1 lsl 18;
    latency = Simnvm.Latency.default;
    evict_rate = 0.0;
    seed = 42;
  }

(* Layout metadata carried in the header so a surviving file is
   self-describing: recovery rebuilds the Respct.Layout from these alone. *)
type meta = { max_threads : int; registry_per_slot : int; integrity : bool }

(* Runtime.default_config's layout parameters, integrity on. *)
let default_meta = { max_threads = 8; registry_per_slot = 4096; integrity = true }

type mutant = Elide_psync

type open_error =
  | Too_short of { bytes : int }
  | Bad_magic of { found : int64 }
  | Bad_version of { found : int }
  | Header_corrupt
  | Bad_geometry of string

let pp_open_error ppf = function
  | Too_short { bytes } ->
      Fmt.pf ppf "file too short for a header (%d bytes)" bytes
  | Bad_magic { found } -> Fmt.pf ppf "bad magic 0x%Lx" found
  | Bad_version { found } -> Fmt.pf ppf "unsupported version %d" found
  | Header_corrupt -> Fmt.string ppf "header checksum mismatch"
  | Bad_geometry msg -> Fmt.pf ppf "implausible geometry: %s" msg

type map = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  cfg : config;
  meta : meta;
  path : string;
  fd : Unix.file_descr;
  map : map;
  image_base : int; (* word offset of the NVMM image in the mapping *)
  mirror : int array; (* process-local "cache": nvm_words + dram_words *)
  dirty : Bytes.t; (* per NVMM line: mirror ahead of the mapping *)
  pending : Bytes.t; (* per NVMM line: pwb'd since the last psync *)
  mutable pending_order : int list; (* pending lines, reverse issue order *)
  rng : Simnvm.Rng.t;
  stats : Simnvm.Stats.t;
  mutable bus : Event.bus; (* the world's bus once Env couples it *)
  mutable charge : float -> unit;
  mutable tid : unit -> int;
  mutable mutant : mutant option;
  truncated : bool; (* the file was shorter than its header's claim *)
  mutable closed : bool;
}

(* ------------------------------------------------------------------ *)
(* Header *)

let header_words = 16
let magic = 0x4d654d46_74635052L (* "RPctFMeM", little-endian spelling *)
let version = 1

(* FNV-1a over int64 words; the header checks itself with it, with no
   dependency on Respct.Checksum (the layering goes the other way). The
   low bit is forced so a valid checksum is never 0 (= the cleared journal
   slot) and never collides with fresh-file zeros. *)
let fnv64 words =
  let h = ref (-0x340d631b7bdddcdbL) (* 0xcbf29ce484222325 *) in
  List.iter
    (fun w ->
      for shift = 0 to 7 do
        let byte = Int64.to_int (Int64.shift_right_logical w (shift * 8)) land 0xff in
        h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L
      done)
    words;
  Int64.logor !h 1L

let header_fields (cfg : config) (meta : meta) =
  [
    Int64.of_int version;
    Int64.of_int cfg.line_words;
    Int64.of_int cfg.nvm_words;
    Int64.of_int cfg.dram_words;
    Int64.of_int meta.max_threads;
    Int64.of_int meta.registry_per_slot;
    (if meta.integrity then 1L else 0L);
  ]

let write_header (map : map) cfg meta =
  let fields = header_fields cfg meta in
  map.{0} <- magic;
  List.iteri (fun i w -> map.{1 + i} <- w) fields;
  map.{8} <- fnv64 (magic :: fields);
  for i = 9 to header_words - 1 do
    map.{i} <- 0L
  done

(* ------------------------------------------------------------------ *)
(* Journal: one line write-back at a time, SIGKILL-atomic.

   Slot layout at [journal_base]: [0] lineno (or -1 retired), [1] checksum
   over lineno + data, [2..2+lw) the line snapshot. Write order on commit:
   data, lineno, checksum; retire order: lineno := -1, checksum := 0. The
   checksum is written last, so an interrupted commit is uncertified and
   ignored; replay of a certified slot is idempotent. *)

let journal_base = header_words
let journal_words lw = 2 + lw

let journal_retire t =
  t.map.{journal_base} <- -1L;
  t.map.{journal_base + 1} <- 0L

(* Copy one line, mirror -> mapping, through the journal. *)
let write_back_line t lineno =
  let lw = t.cfg.line_words in
  let base = lineno * lw in
  let data = List.init lw (fun i -> Int64.of_int t.mirror.(base + i)) in
  List.iteri (fun i w -> t.map.{journal_base + 2 + i} <- w) data;
  t.map.{journal_base} <- Int64.of_int lineno;
  t.map.{journal_base + 1} <- fnv64 (Int64.of_int lineno :: data);
  List.iteri (fun i w -> t.map.{t.image_base + base + i} <- w) data;
  journal_retire t

(* Complete an interrupted write-back found at open time. *)
let journal_replay (map : map) ~image_base ~line_words =
  let lineno = Int64.to_int map.{journal_base} in
  if lineno >= 0 then begin
    let data = List.init line_words (fun i -> map.{journal_base + 2 + i}) in
    if fnv64 (Int64.of_int lineno :: data) = map.{journal_base + 1} then
      List.iteri
        (fun i w -> map.{image_base + (lineno * line_words) + i} <- w)
        data
  end;
  map.{journal_base} <- -1L;
  map.{journal_base + 1} <- 0L

(* ------------------------------------------------------------------ *)
(* Bitset helpers (same shape as Memsys's). *)

let[@inline] bit_get b i =
  Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7))))

(* ------------------------------------------------------------------ *)
(* Construction *)

let map_words fd words =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| words |])

let total_words cfg = journal_base + journal_words cfg.line_words + cfg.nvm_words

let validate_geometry cfg =
  if cfg.line_words <= 0 || cfg.line_words > 62 then
    Error (Bad_geometry "line_words out of [1, 62]")
  else if cfg.nvm_words <= 0 || cfg.nvm_words > 1 lsl 28 then
    Error (Bad_geometry "nvm_words out of (0, 2^28]")
  else if cfg.nvm_words mod cfg.line_words <> 0 then
    Error (Bad_geometry "nvm_words not line-aligned")
  else if cfg.dram_words < 0 || cfg.dram_words > 1 lsl 28 then
    Error (Bad_geometry "dram_words out of [0, 2^28]")
  else Ok ()

let make cfg meta ~path ~fd ~map ~truncated =
  let image_base = journal_base + journal_words cfg.line_words in
  let mirror = Array.make (cfg.nvm_words + cfg.dram_words) 0 in
  for i = 0 to cfg.nvm_words - 1 do
    mirror.(i) <- Int64.to_int map.{image_base + i}
  done;
  let nvm_lines = cfg.nvm_words / cfg.line_words in
  {
    cfg;
    meta;
    path;
    fd;
    map;
    image_base;
    mirror;
    dirty = Bytes.make ((nvm_lines + 7) / 8) '\000';
    pending = Bytes.make ((nvm_lines + 7) / 8) '\000';
    pending_order = [];
    rng = Simnvm.Rng.create cfg.seed;
    stats = Simnvm.Stats.create ();
    bus = Event.create_bus ();
    charge = (fun _ -> ());
    tid = (fun () -> -1);
    mutant = None;
    truncated;
    closed = false;
  }

let create ?(meta = default_meta) cfg ~path =
  (match validate_geometry cfg with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "Filemem.create: %a" pp_open_error e));
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let map = map_words fd (total_words cfg) in
  write_header map cfg meta;
  map.{journal_base} <- -1L;
  map.{journal_base + 1} <- 0L;
  make cfg meta ~path ~fd ~map ~truncated:false

let open_existing ?(latency = Simnvm.Latency.default) ?(evict_rate = 0.0)
    ?(seed = 42) ~path () =
  match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Bad_geometry (Unix.error_message e))
  | fd -> (
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_words * 8 then begin
        Unix.close fd;
        Error (Too_short { bytes = size })
      end
      else begin
        let h = map_words fd header_words in
        if h.{0} <> magic then begin
          Unix.close fd;
          Error (Bad_magic { found = h.{0} })
        end
        else if h.{1} <> Int64.of_int version then begin
          Unix.close fd;
          Error (Bad_version { found = Int64.to_int h.{1} })
        end
        else begin
          let cfg =
            {
              line_words = Int64.to_int h.{2};
              nvm_words = Int64.to_int h.{3};
              dram_words = Int64.to_int h.{4};
              latency;
              evict_rate;
              seed;
            }
          in
          let meta =
            {
              max_threads = Int64.to_int h.{5};
              registry_per_slot = Int64.to_int h.{6};
              integrity = h.{7} <> 0L;
            }
          in
          if h.{8} <> fnv64 (magic :: header_fields cfg meta) then begin
            Unix.close fd;
            Error Header_corrupt
          end
          else
            match validate_geometry cfg with
            | Error e ->
                Unix.close fd;
                Error e
            | Ok () ->
                (* A kill during file growth leaves the file shorter than
                   the header's claim; mapping the full geometry grows it
                   back sparsely, so the missing tail reads as zeros and
                   recovery grades the zeros through its damage taxonomy
                   instead of tripping over a short mapping. *)
                let truncated = size < total_words cfg * 8 in
                let map = map_words fd (total_words cfg) in
                journal_replay map
                  ~image_base:(journal_base + journal_words cfg.line_words)
                  ~line_words:cfg.line_words;
                Ok (make cfg meta ~path ~fd ~map ~truncated)
        end
      end)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let config t = t.cfg
let meta t = t.meta
let stats t = t.stats
let was_truncated t = t.truncated
let arm_mutant t m = t.mutant <- Some m

(* ------------------------------------------------------------------ *)
(* Access path *)

let check_addr t addr =
  if addr < 0 || addr >= t.cfg.nvm_words + t.cfg.dram_words then
    invalid_arg (Printf.sprintf "Filemem: address %d out of range" addr)

let is_nvm t addr = addr < t.cfg.nvm_words
let[@inline] line_of t addr = addr / t.cfg.line_words

let mark_dirty t addr =
  if is_nvm t addr then bit_set t.dirty (line_of t addr)

(* Background hardware may persist any dirty line at any moment (the
   partial-persistence hazard undo logging defends against); seeded, so a
   counterexample replays. Line-granular and journalled: even spontaneous
   write-backs are line-atomic under PCSO. *)
let spontaneous_eviction t =
  if t.cfg.evict_rate > 0.0 && Simnvm.Rng.float t.rng < t.cfg.evict_rate then begin
    let nvm_lines = t.cfg.nvm_words / t.cfg.line_words in
    let lineno = Simnvm.Rng.int t.rng nvm_lines in
    if bit_get t.dirty lineno then begin
      write_back_line t lineno;
      bit_clear t.dirty lineno;
      t.stats.Simnvm.Stats.spontaneous_evictions <-
        t.stats.Simnvm.Stats.spontaneous_evictions + 1;
      t.stats.Simnvm.Stats.nvm_writebacks <-
        t.stats.Simnvm.Stats.nvm_writebacks + 1;
      if Event.active t.bus then begin
        Event.emit t.bus
          (Event.Writeback { backing = Event.Nvm; line = lineno });
        Event.emit t.bus (Event.Eviction { line = lineno })
      end
    end
  end

let load t addr =
  check_addr t addr;
  t.stats.Simnvm.Stats.loads <- t.stats.Simnvm.Stats.loads + 1;
  if Event.active t.bus then
    Event.emit t.bus (Event.Load { tid = t.tid (); addr });
  t.charge t.cfg.latency.Simnvm.Latency.cache_hit_ns;
  t.mirror.(addr)

let store t addr v =
  check_addr t addr;
  t.stats.Simnvm.Stats.stores <- t.stats.Simnvm.Stats.stores + 1;
  if Event.active t.bus then
    Event.emit t.bus (Event.Store { tid = t.tid (); addr });
  t.charge
    (t.cfg.latency.Simnvm.Latency.cache_hit_ns
    +. t.cfg.latency.Simnvm.Latency.store_extra_ns);
  t.mirror.(addr) <- v;
  mark_dirty t addr;
  spontaneous_eviction t

(* Lazy pwb: mark the line pending (in issue order) and let psync move it.
   This is a legal PCSO schedule — clwb only guarantees the line reaches
   the medium by the next fence — and the one that makes psync
   load-bearing: eliding it observably loses data, so the planted mutant
   is catchable. *)
let pwb t addr =
  check_addr t addr;
  let lineno = line_of t addr in
  let dirty = is_nvm t addr && bit_get t.dirty lineno in
  t.stats.Simnvm.Stats.pwbs <- t.stats.Simnvm.Stats.pwbs + 1;
  if Event.active t.bus then
    Event.emit t.bus (Event.Pwb { tid = t.tid (); addr; dirty });
  if dirty then begin
    if not (bit_get t.pending lineno) then begin
      bit_set t.pending lineno;
      t.pending_order <- lineno :: t.pending_order
    end;
    t.charge t.cfg.latency.Simnvm.Latency.clwb_ns
  end
  else t.charge (t.cfg.latency.Simnvm.Latency.clwb_ns /. 8.0)

let psync t =
  t.stats.Simnvm.Stats.psyncs <- t.stats.Simnvm.Stats.psyncs + 1;
  if Event.active t.bus then Event.emit t.bus (Event.Psync { tid = t.tid () });
  t.charge t.cfg.latency.Simnvm.Latency.sfence_ns;
  match t.mutant with
  | Some Elide_psync -> ()
  | None ->
      let lines = List.rev t.pending_order in
      t.pending_order <- [];
      List.iter
        (fun lineno ->
          bit_clear t.pending lineno;
          if bit_get t.dirty lineno then begin
            write_back_line t lineno;
            bit_clear t.dirty lineno;
            t.stats.Simnvm.Stats.nvm_writebacks <-
              t.stats.Simnvm.Stats.nvm_writebacks + 1;
            t.charge t.cfg.latency.Simnvm.Latency.nvm_writeback_ns;
            if Event.active t.bus then
              Event.emit t.bus
                (Event.Writeback { backing = Event.Nvm; line = lineno })
          end)
        lines

(* ------------------------------------------------------------------ *)
(* Host-level oracle views (no charge, no event — the Backend contract) *)

let peek t addr =
  check_addr t addr;
  t.mirror.(addr)

let persisted t addr =
  if addr < 0 || addr >= t.cfg.nvm_words then
    invalid_arg "Filemem.persisted: address not in NVMM";
  Int64.to_int t.map.{t.image_base + addr}

(* In-process power cut: the mirror (our "cache") reloads from the file
   image and the DRAM region zeroes. The parity and idempotence tests use
   this; the prockill harness uses the real thing (SIGKILL). *)
let crash t =
  t.stats.Simnvm.Stats.crashes <- t.stats.Simnvm.Stats.crashes + 1;
  if Event.active t.bus then Event.emit t.bus (Event.Crash { eadr = false });
  for i = 0 to t.cfg.nvm_words - 1 do
    t.mirror.(i) <- Int64.to_int t.map.{t.image_base + i}
  done;
  Array.fill t.mirror t.cfg.nvm_words t.cfg.dram_words 0;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Bytes.fill t.pending 0 (Bytes.length t.pending) '\000';
  t.pending_order <- []

let flush_all t =
  let nvm_lines = t.cfg.nvm_words / t.cfg.line_words in
  for lineno = 0 to nvm_lines - 1 do
    if bit_get t.dirty lineno then begin
      write_back_line t lineno;
      bit_clear t.dirty lineno;
      t.stats.Simnvm.Stats.nvm_writebacks <-
        t.stats.Simnvm.Stats.nvm_writebacks + 1
    end
  done;
  Bytes.fill t.pending 0 (Bytes.length t.pending) '\000';
  t.pending_order <- []

let scrub_line t lineno =
  let lw = t.cfg.line_words in
  if lineno < 0 || lineno * lw >= t.cfg.nvm_words then
    invalid_arg "Filemem.scrub_line: line not in NVMM";
  for i = 0 to lw - 1 do
    t.map.{t.image_base + (lineno * lw) + i} <- 0L;
    t.mirror.((lineno * lw) + i) <- 0
  done;
  bit_clear t.dirty lineno;
  t.stats.Simnvm.Stats.media_scrubs <- t.stats.Simnvm.Stats.media_scrubs + 1;
  if Event.active t.bus then
    Event.emit t.bus (Event.Media_scrub { line = lineno })

let backend t : Simnvm.Backend.t =
  {
    Simnvm.Backend.name = "filemem:" ^ t.path;
    line_words = t.cfg.line_words;
    nvm_words = t.cfg.nvm_words;
    load = load t;
    store = store t;
    pwb = pwb t;
    psync = (fun () -> psync t);
    peek = peek t;
    persisted = persisted t;
    crash = (fun () -> crash t);
    scrub_line = scrub_line t;
    flush_all = (fun () -> flush_all t);
    bus = (fun () -> t.bus);
    set_bus = (fun b -> t.bus <- b);
    set_charge = (fun f -> t.charge <- f);
    get_charge = (fun () -> t.charge);
    set_tid_provider = (fun f -> t.tid <- f);
  }
