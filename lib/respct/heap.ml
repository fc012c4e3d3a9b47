(* Persistent-memory allocator (the paper's alloc_in_nvmm).

   Design:

   - The global state is a bump cursor, itself an InCLL variable:
     allocations performed during a crashed epoch are reclaimed by the
     cursor rollback at recovery, keeping the allocator consistent with the
     heap contents.
   - Each thread slot owns a cache chunk carved from the cursor under the
     global heap mutex; small allocations bump inside the chunk with no
     cross-thread synchronisation (tcmalloc-style thread caches). A chunk
     carved during a crashed epoch is reclaimed by the cursor rollback; the
     unused tail of an older chunk leaks on a crash, which is safe.
   - Freed blocks go to per-slot, per-size volatile free lists, but only
     become reusable after the next checkpoint ([advance_epoch]): reusing a
     block freed in the same epoch would destroy pre-epoch state that
     recovery may need to restore (e.g. a dequeued node that a rolled-back
     queue head still references).
   - [alloc_block] reports whether the block is fresh (never allocated
     before) or recycled. The runtime registers InCLL cells in the recovery
     registry only for fresh blocks: a recycled block's cells are already
     registered, and since free lists are segregated by size, a block is
     recycled only for the same layout, so the stale registry entry stays
     valid (rollback of a cell that was legitimately re-initialised is
     idempotent and harmless). Programs must not recycle blocks across
     different layouts of the same size (see DESIGN.md).

   The free lists and pending lists are host-level (OCaml) state touched
   atomically between simulation yield points, so they need no simulated
   lock; only the cursor path, which performs simulated memory accesses,
   takes the heap mutex. Each slot keeps them in one record of int stacks
   that keep their arrays across epochs, so a warm free, promotion or
   reuse allocates nothing. *)

module Int_stack = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let length s = s.n
  let clear s = s.n <- 0

  (* Doubling is out of line, so that the append inlines into its
     callers ([Runtime.add_modified] runs it for every tracked address)
     and the common case makes no call. *)
  let[@inline never] grow s =
    let a = Array.make (max 8 (2 * s.n)) 0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a

  let[@inline] push s x =
    if s.n = Array.length s.a then grow s;
    Array.unsafe_set s.a s.n x;
    s.n <- s.n + 1

  let pop s =
    if s.n = 0 then invalid_arg "Heap.Int_stack.pop: empty";
    s.n <- s.n - 1;
    Array.unsafe_get s.a s.n

  let get s i =
    if i < 0 || i >= s.n then invalid_arg "Heap.Int_stack.get";
    Array.unsafe_get s.a i

  let blit s dst pos = Array.blit s.a 0 dst pos s.n
end

(* One slot's allocator state. A slot frees blocks of few sizes (the map
   and the queue each free one node size), so its free stacks sit in two
   short parallel arrays scanned linearly. *)
type cache = {
  mutable cur : int; (* the slot's chunk: next free word ... *)
  mutable lim : int; (* ... and its end *)
  mutable sizes : int array; (* block sizes that have a free stack ... *)
  mutable stacks : Int_stack.t array; (* ... and those stacks: LIFO *)
  pending : Int_stack.t;
      (* this epoch's frees, oldest first: address, words, address, ... *)
}

type t = {
  env : Simsched.Env.t;
  cursor_cell : Incll.cell;
  base : int;
  limit : int;
  chunk_words : int;
  caches : cache array; (* indexed by slot *)
  m : Simsched.Mutex.t;
}

(* Volatile bookkeeping costs (free-list pop/push, chunk bump). *)
let cache_op_ns = 8.0

let create ?(chunk_words = 1024) env ~slots ~cursor_cell ~base ~limit =
  if base > limit then invalid_arg "Heap.create: base > limit";
  {
    env;
    cursor_cell;
    base;
    limit;
    chunk_words;
    caches =
      Array.init slots (fun _ ->
          {
            cur = 0;
            lim = 0;
            sizes = [||];
            stacks = [||];
            pending = Int_stack.create ();
          });
    m = Simsched.Mutex.create ~name:"heap" ();
  }

let init_cursor ctx t = Incll.init ctx t.cursor_cell t.base

let sched t = Simsched.Env.sched t.env
let line_words t = Simsched.Env.line_words t.env

(* The index of [words] in [sizes] from [i] on, or -1. *)
let rec size_from (sizes : int array) (words : int) i =
  if i = Array.length sizes then -1
  else if Array.unsafe_get sizes i = words then i
  else size_from sizes words (i + 1)

let size_index c words = size_from c.sizes words 0

(* Make [addr], a block of [words] words, the next one of its size that
   the slot reuses. *)
let push_free c addr words =
  let i = size_index c words in
  let i =
    if i >= 0 then i
    else begin
      c.sizes <- Array.append c.sizes [| words |];
      c.stacks <- Array.append c.stacks [| Int_stack.create () |];
      Array.length c.sizes - 1
    end
  in
  Int_stack.push c.stacks.(i) addr

(* Allocate straight from the global cursor (large blocks, chunk refills).
   Holds the heap mutex across the InCLL cursor update. *)
let cursor_alloc ctx t ~words ~line_start =
  Simsched.Mutex.with_lock (sched t) t.m (fun () ->
      let lw = line_words t in
      let cursor = Incll.read ctx t.cursor_cell in
      let start = if line_start then (cursor + lw - 1) / lw * lw else cursor in
      if start + words > t.limit then failwith "Heap.alloc: out of memory";
      Incll.update ctx t.cursor_cell (start + words);
      start)

(* [alloc_block] returns the block and whether it is fresh. *)
let alloc_block ?(align_line = false) ?(line_start = false) (ctx : Pctx.t) t
    ~words =
  if words <= 0 then invalid_arg "Heap.alloc: words must be positive";
  let s = sched t in
  Simsched.Scheduler.charge s cache_op_ns;
  let c = t.caches.(ctx.Pctx.slot) in
  let i = size_index c words in
  if i >= 0 && Int_stack.length c.stacks.(i) > 0 then
    (Int_stack.pop c.stacks.(i), false)
  else
    let lw = line_words t in
    if line_start || words > t.chunk_words / 2 then
      (cursor_alloc ctx t ~words ~line_start:true, true)
    else begin
      let start =
        if align_line then Simnvm.Addr.align_for ~line_words:lw ~words c.cur
        else c.cur
      in
      if start + words <= c.lim then begin
        c.cur <- start + words;
        (start, true)
      end
      else begin
        (* Refill the slot cache from the global cursor. *)
        let chunk = cursor_alloc ctx t ~words:t.chunk_words ~line_start:true in
        c.cur <- chunk + words;
        c.lim <- chunk + t.chunk_words;
        (chunk, true)
      end
    end

let alloc ?align_line ?line_start ctx t ~words =
  fst (alloc_block ?align_line ?line_start ctx t ~words)

let alloc_incll_block ctx t =
  alloc_block ~align_line:true ctx t ~words:Incll.words

let alloc_incll ctx t = fst (alloc_incll_block ctx t)

let cells_per_line env =
  let lw = Simsched.Env.line_words env in
  if lw < Incll.words then
    invalid_arg "Heap: cache line smaller than an InCLL cell";
  lw / Incll.words

let alloc_incll_array_block ctx t n =
  if n <= 0 then invalid_arg "Heap.alloc_incll_array: n must be positive";
  let lw = line_words t in
  let per = cells_per_line t.env in
  let lines = (n + per - 1) / per in
  alloc_block ~line_start:true ctx t ~words:(lines * lw)

let cell_at_words ~line_words base i =
  let per = line_words / Incll.words in
  base + (i / per * line_words) + (i mod per * Incll.words)

let cell_at env base i =
  cell_at_words ~line_words:(Simsched.Env.line_words env) base i

(* [cell_at_words] for i = 0 .. count - 1, stepping instead of dividing:
   the cells of a line are [Incll.words] apart, and the next line starts
   once a line's [line_words / Incll.words] cells are done. *)
let iter_cells ~line_words base count f =
  let span = line_words / Incll.words * Incll.words in
  let line = ref base and off = ref 0 in
  for _ = 1 to count do
    f (!line + !off);
    off := !off + Incll.words;
    if !off = span then begin
      off := 0;
      line := !line + line_words
    end
  done

(* [cell_at_words ~line_words base (count - 1)] without dividing per
   range: for 0 <= i < 2^20, the counts a registry entry holds, i / per is
   (i * inv) lsr 40 with inv = 2^40 / per + 1. That [inv] exceeds
   2^40 / per by at most 1, so the product's quotient exceeds i / per by
   at most i / 2^40 < 2^-20, less than the 1 / per by which a quotient's
   fraction stays below the next integer (Granlund and Montgomery's
   division by invariant integers). *)
let range_last_cell ~line_words =
  let per = line_words / Incll.words in
  let inv = ((1 lsl 40) / per) + 1 in
  fun base count ->
    let i = count - 1 in
    let q = (i * inv) lsr 40 in
    base + (q * line_words) + ((i - (q * per)) * Incll.words)

let free (ctx : Pctx.t) t addr ~words =
  Simsched.Scheduler.charge (sched t) cache_op_ns;
  let p = t.caches.(ctx.Pctx.slot).pending in
  Int_stack.push p addr;
  Int_stack.push p words

(* [f c addr words] for each of [c]'s pending frees, newest first, then
   empty them. Promoted in this order, the epoch's oldest free is the
   first one reused. *)
let drain_pending c f =
  let p = c.pending in
  let i = ref (Int_stack.length p - 2) in
  while !i >= 0 do
    f c (Int_stack.get p !i) (Int_stack.get p (!i + 1));
    i := !i - 2
  done;
  Int_stack.clear p

(* Called by the classic runtime once a checkpoint has completed (threads
   are quiescent): blocks freed in the epoch that just persisted become
   safe to reuse by the slot that freed them. *)
let advance_epoch t = Array.iter (fun c -> drain_pending c push_free) t.caches

(* Staged reclamation for the pipelined runtime: [collect_pending] copies
   and clears the pending frees at quiescence (capturing exactly the frees
   of the epoch being checkpointed), and [release] promotes the copy once
   the overlapped background flush has sealed. Releasing earlier would let
   a block freed in epoch [e] be reallocated while the flusher walk still
   expects its epoch-[e] contents. Both are host-level and cost nothing in
   virtual time. A snapshot holds (slot, addr, words) triples, slot by
   slot, each slot's frees in promotion order (newest first). *)

type staged = int array

let staged_addrs (s : staged) =
  List.init (Array.length s / 3) (fun k -> s.((3 * k) + 1))

let collect_pending t =
  let n =
    Array.fold_left (fun n c -> n + Int_stack.length c.pending) 0 t.caches
  in
  let s = Array.make (n / 2 * 3) 0 in
  let k = ref 0 in
  Array.iteri
    (fun slot c ->
      drain_pending c (fun _ addr words ->
          s.(!k) <- slot;
          s.(!k + 1) <- addr;
          s.(!k + 2) <- words;
          k := !k + 3))
    t.caches;
  s

let release t (s : staged) =
  let k = ref 0 in
  while !k < Array.length s do
    push_free t.caches.(s.(!k)) s.(!k + 1) s.(!k + 2);
    k := !k + 3
  done

let cursor ctx t = Incll.read ctx t.cursor_cell
let used ctx t = cursor ctx t - t.base
