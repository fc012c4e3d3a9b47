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

   Free lists and pending lists are host-level (OCaml) structures touched
   atomically between simulation yield points, so they need no simulated
   lock; only the cursor path, which performs simulated memory accesses,
   takes the heap mutex. *)

type chunk = { mutable cur : int; mutable lim : int }

type t = {
  env : Simsched.Env.t;
  cursor_cell : Incll.cell;
  base : int;
  limit : int;
  chunk_words : int;
  chunks : (int, chunk) Hashtbl.t; (* slot -> cache chunk *)
  free_lists : (int * int, int list ref) Hashtbl.t; (* (slot, words) *)
  pending : (int, (int * int) list ref) Hashtbl.t; (* slot -> frees *)
  m : Simsched.Mutex.t;
}

(* Volatile bookkeeping costs (free-list pop/push, chunk bump). *)
let cache_op_ns = 8.0

let create ?(chunk_words = 1024) env ~cursor_cell ~base ~limit =
  if base > limit then invalid_arg "Heap.create: base > limit";
  {
    env;
    cursor_cell;
    base;
    limit;
    chunk_words;
    chunks = Hashtbl.create 16;
    free_lists = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    m = Simsched.Mutex.create ~name:"heap" ();
  }

let init_cursor ctx t = Incll.init ctx t.cursor_cell t.base

let sched t = Simsched.Env.sched t.env
let line_words t = Simsched.Env.line_words t.env

let free_list t key =
  match Hashtbl.find_opt t.free_lists key with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.free_lists key l;
      l

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

let slot_chunk t slot =
  match Hashtbl.find_opt t.chunks slot with
  | Some c -> c
  | None ->
      let c = { cur = 0; lim = 0 } in
      Hashtbl.add t.chunks slot c;
      c

(* [alloc_block] returns the block and whether it is fresh. *)
let alloc_block ?(align_line = false) ?(line_start = false) (ctx : Pctx.t) t
    ~words =
  if words <= 0 then invalid_arg "Heap.alloc: words must be positive";
  let s = sched t in
  Simsched.Scheduler.charge s cache_op_ns;
  let slot = ctx.Pctx.slot in
  let fl = free_list t (slot, words) in
  match !fl with
  | addr :: rest ->
      fl := rest;
      (addr, false)
  | [] ->
      let lw = line_words t in
      if line_start || words > t.chunk_words / 2 then
        (cursor_alloc ctx t ~words ~line_start:true, true)
      else begin
        let c = slot_chunk t slot in
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

let free (ctx : Pctx.t) t addr ~words =
  Simsched.Scheduler.charge (sched t) cache_op_ns;
  let slot = ctx.Pctx.slot in
  match Hashtbl.find_opt t.pending slot with
  | Some l -> l := (addr, words) :: !l
  | None -> Hashtbl.add t.pending slot (ref [ (addr, words) ])

(* Staged reclamation for the pipelined runtime: [collect_pending] snapshots
   and clears the pending lists at quiescence (capturing exactly the frees
   of the epoch being checkpointed), and [release] promotes a snapshot to
   the free lists once the overlapped background flush has sealed. Releasing
   earlier would let a block freed in epoch [e] be reallocated while the
   flusher walk still expects its epoch-[e] contents. Both are host-level
   and cost nothing in virtual time. *)

type staged = (int * (int * int) list) list

let staged_addrs (s : staged) =
  List.concat_map (fun (_, fs) -> List.map fst fs) s

let collect_pending t =
  Hashtbl.fold
    (fun slot l acc ->
      if !l = [] then acc
      else begin
        let frees = !l in
        l := [];
        (slot, frees) :: acc
      end)
    t.pending []

let release t staged =
  List.iter
    (fun (slot, frees) ->
      List.iter
        (fun (addr, words) ->
          let fl = free_list t (slot, words) in
          fl := addr :: !fl)
        frees)
    staged

(* Called by the classic runtime once a checkpoint has completed (threads
   are quiescent): blocks freed in the epoch that just persisted become
   safe to reuse by the slot that freed them. *)
let advance_epoch t = release t (collect_pending t)

let cursor ctx t = Incll.read ctx t.cursor_cell
let used ctx t = cursor ctx t - t.base
