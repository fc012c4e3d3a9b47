(** Persistent-memory allocator (the paper's [alloc_in_nvmm]).

    A bump allocator whose cursor is an InCLL variable (so allocations made
    during a crashed epoch are reclaimed by the cursor rollback at
    recovery), with per-thread-slot cache chunks for synchronisation-free
    small allocations and per-slot, per-size free lists. Freed blocks become
    reusable only after the next checkpoint, never within the epoch that
    freed them. Free lists are segregated by size; blocks must not be
    recycled across different layouts of the same size (see DESIGN.md).
    A slot reuses the blocks of one size last in, first out, and promotes
    an epoch's frees newest first, so the epoch's oldest free comes back
    first. *)

(** A growable stack of ints, bottom first: the allocator's free and
    pending lists and the runtime's modified sets. [clear] keeps the
    array, so a warm stack pushes without allocating. *)
module Int_stack : sig
  type t

  val create : unit -> t
  val length : t -> int

  val clear : t -> unit
  (** Empty the stack, keeping its array. *)

  val push : t -> int -> unit

  val pop : t -> int
  (** @raise Invalid_argument on an empty stack. *)

  val get : t -> int -> int
  (** [get s i]: the [i]-th int pushed and still held, [0] the bottom.
      @raise Invalid_argument unless [0 <= i < length s]. *)

  val blit : t -> int array -> int -> unit
  (** [blit s dst pos] copies the stack, bottom first, to [dst] from
      [pos]. *)
end

type t

val create :
  ?chunk_words:int ->
  Simsched.Env.t ->
  slots:int ->
  cursor_cell:Incll.cell ->
  base:int ->
  limit:int ->
  t
(** Attach an allocator for thread slots [0, slots) to the arena
    [base, limit) whose persistent cursor lives in [cursor_cell].
    [chunk_words] sizes the per-slot cache chunks.
    @raise Invalid_argument if [base > limit]. *)

val init_cursor : Pctx.t -> t -> unit
(** Initialise the cursor for a fresh memory image. Must {e not} be called
    on restart after recovery (the rolled-back cursor is authoritative). *)

val alloc_block :
  ?align_line:bool ->
  ?line_start:bool ->
  Pctx.t ->
  t ->
  words:int ->
  int * bool
(** Allocate [words] words; the boolean is [true] for a fresh block and
    [false] for one recycled from a free list (whose InCLL cells, if any,
    are already registered for recovery). [align_line] keeps the block
    within one cache line; [line_start] begins it on a line boundary.
    @raise Failure when the arena is exhausted. *)

val alloc :
  ?align_line:bool -> ?line_start:bool -> Pctx.t -> t -> words:int -> int
(** [alloc_block] without the freshness flag. *)

val alloc_incll_block : Pctx.t -> t -> Incll.cell * bool
(** Allocate one line-resident InCLL cell (uninitialised: call
    {!Incll.init}); the flag is as in {!alloc_block}. *)

val alloc_incll : Pctx.t -> t -> Incll.cell
(** [alloc_incll_block] without the freshness flag. *)

val alloc_incll_array_block : Pctx.t -> t -> int -> int * bool
(** Allocate [n] InCLL cells packed (line_words / 3) per line; returns the
    base and the freshness flag; address cells with {!cell_at}. *)

val cell_at : Simsched.Env.t -> int -> int -> Incll.cell
(** [cell_at env base i]: address of the [i]-th cell of a packed array. *)

val cell_at_words : line_words:int -> int -> int -> Incll.cell
(** Pure form of {!cell_at} for host-level walkers that hold no
    environment (e.g. oracle reads over a backend's durable image). *)

val iter_cells :
  line_words:int -> int -> int -> (Incll.cell -> unit) -> unit
(** [iter_cells ~line_words base count f] calls [f] on the cells [0] to
    [count - 1] of a packed array, in order: [cell_at_words ~line_words
    base i] for each [i], without a division per cell. Both recovery
    scans walk registry ranges with it. *)

val range_last_cell : line_words:int -> int -> int -> Incll.cell
(** [range_last_cell ~line_words base count] is [cell_at_words ~line_words
    base (count - 1)] for [1 <= count <= Layout.max_entry_count], with a
    multiply and a shift where [cell_at_words] divides twice: apply it to
    [~line_words] once and call the result per range. The verified scan
    bounds-checks every registry entry with it. *)

val free : Pctx.t -> t -> int -> words:int -> unit
(** Return a block to the freeing slot's pending list; it becomes reusable
    after the next checkpoint. *)

val advance_epoch : t -> unit
(** Runtime hook, called when a checkpoint completes: promote blocks freed
    during the persisted epoch to the free lists. Equivalent to
    [release t (collect_pending t)]. *)

type staged
(** A snapshot of the pending frees of one epoch, detached from the heap. *)

val staged_addrs : staged -> int list
(** Debug view: the staged block addresses, slot by slot, each slot's
    newest free first (the order {!release} promotes them in). *)

val collect_pending : t -> staged
(** Copy and clear the pending free lists (pipelined runtime: taken at
    quiescence, so it captures exactly the frees of the epoch being
    checkpointed). *)

val release : t -> staged -> unit
(** Promote a {!collect_pending} snapshot to the free lists. The pipelined
    runtime defers this until the overlapped background flush has sealed:
    releasing earlier could recycle a block the flusher walk still reads. *)

val used : Pctx.t -> t -> int
(** Words carved from the arena so far (free lists not subtracted). *)
