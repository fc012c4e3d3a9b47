(* Recovery procedure (paper Figure 5), with the parallel organisation used
   for the Figure 12 experiment: the per-slot InCLL registries are split
   into chunks distributed over a configurable number of recovery threads,
   each rolling back and re-persisting its share.

   Rollback is idempotent: a crash during recovery re-runs it from scratch
   against the same persistent image (backup words are never modified).

   Per the paper (line 65), the global epoch is left at the failed epoch.
   A rolled-back cell keeps that epoch in its epoch_id, so the first
   post-restart update of it correctly skips re-logging (backup already
   holds the start-of-epoch value) -- but the volatile to_be_flushed lists
   died in the crash, so the restarted runtime must be re-seeded with the
   rolled-back cells or their next checkpoint would miss them. [rolled_back]
   carries that list; [Runtime.restart] consumes it.

   Two entry points share that skeleton. [run] is the trusting scan of the
   original algorithm: correct on perfect media, silently wrong on faulty
   media. [run_verified] is the hardened scan for integrity-mode images: it
   re-derives the failed epoch from the checkpoint-commit record, verifies
   every cell's Checksum seal before trusting it, retries transient media
   errors with bounded backoff, scrubs persistently failing lines, and
   folds everything it could not prove into a structured verdict -- it
   fails stop (Salvaged / Unrecoverable), never silent.

   The two run differently. [run] spawns its workers on a scheduler of
   its own, so its duration is the makespan of the parallel scan (Figure
   12 measures exactly this). [run_verified] is sequential, so it is a
   plain loop over the backend with no scheduler: its duration is the
   sum of what its accesses and retry backoffs charge. Both walk a
   registry range's cells with [Heap.iter_cells]. *)

type report = {
  failed_epoch : int;
  scanned : int; (* registry entries examined *)
  rolled_back : Incll.cell list; (* cells restored from their backup *)
  duration_ns : float; (* virtual time of the parallel recovery *)
  rp_ids : (int * int) list; (* (slot, restart-point id) per thread slot *)
}

(* ------------------------------------------------------------------ *)
(* Damage taxonomy of the verified scan *)

type damage =
  | Torn_record of { cell : Incll.cell }
      (* quiescent record failed crc_rec; certified backup restored
         (one epoch stale -- salvage, not proof) *)
  | Torn_log of { cell : Incll.cell }
      (* backup/epoch seal broken: undo log unprovable, cell quarantined *)
  | Metadata_torn of { cell : Incll.cell }
      (* same, on a cursor / slot-count / registry-length cell: the scan
         itself ran on unproven input *)
  | Tag_restored of { cell : Incll.cell }
      (* the cell read quiescent but its log seal only verifies under the
         failed epoch: the epoch tag was damaged. The certified backup was
         restored -- reported, not proven exact (CRC-16 can collide) *)
  | Commit_repaired of { epoch : int }
      (* the epoch word's own seal held and the commit record disagreed
         with it: the commit record was rewritten from the certified
         epoch -- a proven repair *)
  | Epoch_restored of { epoch : int }
      (* the epoch word's seal was broken and the commit record was
         certified: the epoch word was rewritten from it. The true crash
         may have sat in the pre-bump window one epoch earlier, so the
         restored image is best-effort, not proven exact *)
  | Commit_broken of { epoch_word : int; commit_word : int }
      (* neither side certifiable: the failed epoch itself is unknown *)
  | Registry_corrupt of { addr : int }
      (* registry entry (or slot-table word) failed its summary CRC or
         bounds check; skipped *)
  | Range_out_of_bounds of { addr : int; base : int; count : int }
      (* well-summed entry decoding outside the heap: refused *)
  | Media_failed of { line : int }
      (* line raised Media_error beyond the retry budget: scrubbed,
         content lost *)

type verdict =
  | Clean
  | Repaired of damage list
  | Salvaged of damage list
  | Unrecoverable of damage list

type verified = {
  vreport : report;
  verdict : verdict;
  read_retries : int; (* transient media errors retried away *)
}

let pp_damage ppf = function
  | Torn_record { cell } -> Fmt.pf ppf "torn record @@%d (backup restored)" cell
  | Torn_log { cell } -> Fmt.pf ppf "torn log @@%d (quarantined)" cell
  | Metadata_torn { cell } -> Fmt.pf ppf "metadata torn @@%d" cell
  | Tag_restored { cell } ->
      Fmt.pf ppf "epoch tag damaged @@%d (certified backup restored)" cell
  | Commit_repaired { epoch } ->
      Fmt.pf ppf "commit record repaired (epoch %d)" epoch
  | Epoch_restored { epoch } ->
      Fmt.pf ppf "epoch word restored from commit record (epoch %d)" epoch
  | Commit_broken { epoch_word; commit_word } ->
      Fmt.pf ppf "commit record broken (epoch word %d, commit %d)" epoch_word
        commit_word
  | Registry_corrupt { addr } -> Fmt.pf ppf "registry word @@%d corrupt" addr
  | Range_out_of_bounds { addr; base; count } ->
      Fmt.pf ppf "registry entry @@%d out of bounds (base %d, count %d)" addr
        base count
  | Media_failed { line } -> Fmt.pf ppf "media failed, line %d scrubbed" line

let pp_verdict ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Repaired ds ->
      Fmt.pf ppf "repaired: %a" Fmt.(list ~sep:comma pp_damage) ds
  | Salvaged ds ->
      Fmt.pf ppf "salvaged: %a" Fmt.(list ~sep:comma pp_damage) ds
  | Unrecoverable ds ->
      Fmt.pf ppf "unrecoverable: %a" Fmt.(list ~sep:comma pp_damage) ds

(* Severity lattice: any unprovable metadata damage poisons the whole
   verdict; any unproven cell damage caps it at Salvaged; proven repairs
   alone leave an exact image (Repaired). *)
let damage_grade = function
  | Commit_broken _ | Metadata_torn _ -> 3
  | Torn_record _ | Torn_log _ | Tag_restored _ | Registry_corrupt _
  | Range_out_of_bounds _ | Media_failed _ | Epoch_restored _ ->
      2
  | Commit_repaired _ -> 1

let verdict_of_damages ds =
  match List.fold_left (fun g d -> max g (damage_grade d)) 0 ds with
  | 0 -> Clean
  | 1 -> Repaired ds
  | 2 -> Salvaged ds
  | _ -> Unrecoverable ds

let exact_image = function Clean | Repaired _ -> true | Salvaged _ | Unrecoverable _ -> false

(* ------------------------------------------------------------------ *)
(* Trusting scan *)

(* Roll one cell back if it was modified during the failed epoch; returns
   true if a rollback happened. Runs inside a recovery thread.
   [Checksum.epoch_of] unpacks integrity-sealed epoch words and is the
   identity on raw ones, so one comparison serves both representations.

   The comparison is [>=], not [=]: under the pipelined runtime a crash
   during an overlapped flush of epoch e leaves the epoch word at e while
   cells whose previous log predates e were already re-logged in e+1 —
   both in-flight epochs must roll back (each such backup holds the cell's
   last pre-e value, which the e-flush never persisted). On classic images
   the two predicates are identical: no epoch_id ever exceeds the epoch
   word (the bootstrap sentinel -1 compares below every real epoch and is
   untouched either way). *)
let rollback env ~failed_epoch cell =
  if Checksum.epoch_of (Simsched.Env.load env (Incll.epoch_id cell))
     >= failed_epoch
  then begin
    let saved = Simsched.Env.load env (Incll.backup cell) in
    Simsched.Env.store env (Incll.record cell) saved;
    Simsched.Env.pwb env cell;
    true
  end
  else false

(* Chunks of registry entries handed to the recovery workers. *)
let chunk_words = 256

(* Registry lengths and decoded cell ranges are clamped against the layout
   even in the trusting scan: on corrupt input it may restore wrong values
   (that is what [run_verified] exists for), but it must not walk outside
   the heap or loop forever. *)
let clamp lo hi (v : int) = if v < lo then lo else if v > hi then hi else v

let cell_in_heap (layout : Layout.t) cell =
  cell >= layout.Layout.heap_base
  && cell + Incll.words <= layout.Layout.heap_limit

(* [run] over an arbitrary persistence backend (e.g. Filemem):
   [run ... mem] is [run_backend ... (Simnvm.Backend.of_memsys mem)]. *)
let run_backend ?(threads = 1) ?(layout : Layout.t option) ?spans
    (b : Simnvm.Backend.t) =
  let line_words = b.Simnvm.Backend.line_words in
  let layout =
    match layout with
    | Some l -> l
    | None ->
        Layout.v ~line_words ~nvm_words:b.Simnvm.Backend.nvm_words
          ~max_threads:Runtime.default_config.Runtime.max_threads
          ~registry_per_slot:Runtime.default_config.Runtime.registry_per_slot
          ()
  in
  let failed_epoch =
    Checksum.epoch_of (b.Simnvm.Backend.persisted layout.Layout.epoch_addr)
  in
  (* Recovery runs on its own scheduler so its virtual duration is the
     makespan of the parallel scan (Figure 12 measures exactly this). The
     scheduler shares the memory's bus: the world's subscribers (the crash
     explorer's boundary counter among them) keep seeing recovery. *)
  let sched =
    Simsched.Scheduler.create ~bus:(b.Simnvm.Backend.bus ()) ~seed:17 ()
  in
  let env = Simsched.Env.make_backend b sched in
  let rolled = ref [] in
  let scanned = ref 0 in
  ignore
    (Simsched.Scheduler.spawn ~name:"recovery-main" sched (fun () ->
         (* Fixed metadata cells first: registry lengths govern the scan,
            the heap cursor governs reallocation. *)
         let fixed =
           layout.Layout.cursor_cell :: layout.Layout.slots_cell
           :: List.init layout.Layout.max_threads (fun slot ->
                  Layout.reglen_cell layout ~line_words slot)
         in
         let rolled_fixed = List.filter (rollback env ~failed_epoch) fixed in
         Simsched.Env.psync env;
         (* Build the chunked work list over all slot segments. *)
         let work = ref [] in
         for slot = 0 to layout.Layout.max_threads - 1 do
           let len =
             clamp 0 layout.Layout.registry_per_slot
               (Simsched.Env.load env
                  (Incll.record (Layout.reglen_cell layout ~line_words slot)))
           in
           scanned := !scanned + len;
           let base = Layout.registry_segment layout slot in
           let rec chunks lo =
             if lo < len then begin
               work := (base + lo, min len (lo + chunk_words) - lo) :: !work;
               chunks (lo + chunk_words)
             end
           in
           chunks 0
         done;
         let work = Array.of_list !work in
         let next = ref 0 in
         let workers = max 1 threads in
         let done_count = ref 0 in
         let done_mx = Simsched.Mutex.create () in
         let done_cv = Simsched.Condvar.create () in
         for _ = 1 to workers do
           ignore
             (Simsched.Scheduler.spawn ~name:"recovery-worker" sched
                (fun () ->
                  let local = ref [] in
                  let visit cell =
                    if
                      cell_in_heap layout cell
                      && rollback env ~failed_epoch cell
                    then local := cell :: !local
                  in
                  let continue = ref true in
                  while !continue do
                    (* Work stealing from the shared cursor: the fetch is a
                       host-level operation between yield points, hence
                       atomic. *)
                    if !next >= Array.length work then continue := false
                    else begin
                      let i = !next in
                      incr next;
                      let lo, n = work.(i) in
                      for e = lo to lo + n - 1 do
                        let base, count =
                          Layout.decode_entry (Simsched.Env.load env e)
                        in
                        Heap.iter_cells ~line_words base count visit
                      done
                    end
                  done;
                  Simsched.Env.psync env;
                  rolled := List.rev_append !local !rolled;
                  Simsched.Mutex.with_lock sched done_mx (fun () ->
                      incr done_count;
                      Simsched.Condvar.signal sched done_cv)))
         done;
         Simsched.Mutex.lock sched done_mx;
         while !done_count < workers do
           Simsched.Condvar.wait sched done_cv done_mx
         done;
         Simsched.Mutex.unlock sched done_mx;
         rolled := List.rev_append rolled_fixed !rolled));
  (match Simsched.Scheduler.run sched with
  | Simsched.Scheduler.Completed -> ()
  | Simsched.Scheduler.Crash_interrupt _ -> assert false);
  (* Collect per-thread restart-point ids from the slot table. *)
  let slot_count =
    clamp 0 layout.Layout.max_threads
      (b.Simnvm.Backend.persisted (Incll.record layout.Layout.slots_cell))
  in
  let rp_ids =
    List.init slot_count (fun slot ->
        let cell =
          b.Simnvm.Backend.persisted (layout.Layout.slot_table_base + slot)
        in
        if cell = 0 || not (cell_in_heap layout cell) then (slot, 0)
        else (slot, b.Simnvm.Backend.persisted (Incll.record cell)))
  in
  let duration_ns = Simsched.Scheduler.elapsed sched in
  (match spans with
  | Some r -> Obs.Span.emit r ~name:"recovery" ~t0:0.0 ~t1:duration_ns
  | None -> ());
  { failed_epoch; scanned = !scanned; rolled_back = !rolled; duration_ns; rp_ids }

let run ?threads ?layout ?spans mem =
  run_backend ?threads ?layout ?spans (Simnvm.Backend.of_memsys mem)

(* ------------------------------------------------------------------ *)
(* Verified scan *)

(* Base of the exponential backoff charged before re-reading a line that
   raised Media_error (virtual nanoseconds). *)
let retry_backoff_ns = 100.0

(* The verified scan's virtual clock: a float-only record, so adding a
   charge to it allocates nothing. *)
type clock = { mutable ns : float }

(* The backend's hooks while the scan runs (it is thread 0) and after it
   (no thread: nothing is charged, tid -1). *)
let scan_tid () = 0
let no_charge (_ : float) = ()
let no_tid () = -1

(* The scan proper, over the backend [b], charging [clock]. *)
let verified_scan ~max_read_retries (l : Layout.t) (b : Simnvm.Backend.t)
    clock =
  let line_words = b.Simnvm.Backend.line_words in
  let load = b.Simnvm.Backend.load
  and store = b.Simnvm.Backend.store
  and pwb = b.Simnvm.Backend.pwb in
  let damages = ref [] in
  let add_damage d = damages := d :: !damages in
  let retries = ref 0 in
  (* Read through the cache with a bounded-backoff retry loop: transient
     media errors heal on their first raise, so one retry clears them;
     persistent poison survives the budget and is scrubbed (content lost,
     recorded as damage) so the scan can proceed over zeroed media. The
     raise happens before any cache mutation, so retrying is sound.

     An address the medium cannot serve at all (a file truncated by a
     crash during growth, shorter than its header's claimed geometry)
     surfaces as Invalid_argument from the backend: it grades into the
     taxonomy as an out-of-bounds range rather than escaping the scan --
     the read yields 0, whose failing seal then classifies the cell.
     [read_retry] is built once per recovery, not once per read: [n] is
     the retry count so far. *)
  let rec read_retry addr n =
    match load addr with
    | v -> v
    | exception Simnvm.Memsys.Media_error { line; _ } ->
        incr retries;
        if n < max_read_retries then begin
          clock.ns <- clock.ns +. (retry_backoff_ns *. float_of_int (1 lsl n));
          read_retry addr (n + 1)
        end
        else begin
          add_damage (Media_failed { line });
          b.Simnvm.Backend.scrub_line line;
          read_retry addr 0
        end
    | exception Invalid_argument _ ->
        add_damage (Range_out_of_bounds { addr; base = addr; count = 1 });
        0
  in
  let read addr = read_retry addr 0 in
  let rolled = ref [] in
  let scanned = ref 0 in
  (* 1. Failed epoch. The sealed epoch word is authoritative when its own
     CRC holds; the commit record backs it up. The record is
     double-buffered (two epoch+CRC slots on the epoch word's line): the
     classic runtime rewrites slot A at every checkpoint, the pipelined
     runtime alternates slots by epoch parity so a torn seal can never
     destroy the last certified commit. Recovery is protocol-agnostic: it
     trusts whichever slots their CRCs certify and takes the newest. A
     checkpoint commit is three stores -- slot epoch, slot CRC, sealed
     epoch word -- so honest PCSO media can legally persist any prefix: a
     certified slot one epoch ahead of a certified epoch word, or a slot
     whose fresh epoch landed without its CRC (the stale CRC certifies the
     slot's previous tenant), are crash windows, not damage. Everything
     else is classified and, where a CRC proves one side, repaired. *)
  let slots_ =
    [|
      (l.Layout.commit_epoch_addr, l.Layout.commit_crc_addr);
      (l.Layout.commit2_epoch_addr, l.Layout.commit2_crc_addr);
    |]
  in
  let slot_crc i e = Checksum.commit ~epoch:e ~addr:(fst slots_.(i)) in
  let ces = Array.map (fun (ea, _) -> read ea) slots_ in
  let ccs = Array.map (fun (_, ca) -> read ca) slots_ in
  let valid i = ccs.(i) = slot_crc i ces.(i) in
  (* Newest certified commit across the two slots, if any. *)
  let newest =
    let best = ref None in
    Array.iteri
      (fun i _ ->
        if valid i then
          match !best with
          | Some b when b >= ces.(i) -> ()
          | _ -> best := Some ces.(i))
      slots_;
    !best
  in
  let e_word = read l.Layout.epoch_addr in
  let ew = Checksum.epoch_of e_word in
  let ew_ok = Checksum.check_epoch ~word:e_word ~addr:l.Layout.epoch_addr in
  (* A slot caught mid-write: its epoch reads one ahead of the certified
     word while its CRC still certifies the slot's previous occupant --
     [ew] under the classic single-slot rewrite, [ew - 1] under the
     pipelined alternation. *)
  let mid_write i =
    ces.(i) = ew + 1
    && (ccs.(i) = slot_crc i ew || ccs.(i) = slot_crc i (ew - 1))
  in
  let rewrite_commit e =
    Array.iteri
      (fun i (ea, ca) ->
        store ea e;
        store ca (slot_crc i e);
        pwb ea;
        pwb ca)
      slots_
  in
  let fe =
    if ew_ok then
      if
        (match newest with Some s -> s = ew || s = ew + 1 | None -> false)
        || mid_write 0 || mid_write 1
      then ew (* consistent, or a legal mid-commit prefix *)
      else begin
        (* the commit record is damaged; the certified epoch word proves
           the repair (both slots rewritten to it) *)
        rewrite_commit ew;
        add_damage (Commit_repaired { epoch = ew });
        ew
      end
    else
      match newest with
      | Some s ->
          (* epoch word corrupted; the newest certified slot is the best
             evidence, but the crash may have sat in the pre-bump window
             one epoch earlier -- restored, not proven *)
          store l.Layout.epoch_addr
            (Checksum.seal_epoch ~epoch:s ~addr:l.Layout.epoch_addr);
          pwb l.Layout.epoch_addr;
          add_damage (Epoch_restored { epoch = s });
          s
      | None ->
          (* the failed epoch itself is unknowable: every rollback
             decision below is a guess, so the verdict is terminal *)
          add_damage
            (Commit_broken { epoch_word = e_word; commit_word = ces.(0) });
          ew
  in
  (* Verify one cell against its seal. The authority depends on which
     side recovery actually consumes:

     - failed-epoch cells are rolled back from their backup, so crc_log
       (over backup + epoch tag) must prove the undo log before the
       restore may claim exactness;
     - quiescent cells keep their record, so crc_rec is the authority.
       Their crc_log may legally fail: the first update of a cell in the
       failed epoch stores the new backup *before* the new seal, and a
       crash in that window persists a fresh backup under the previous
       epoch's seal. That backup is never read for a quiescent cell, so a
       broken log seal alone is harmless there -- with one exception. If
       the epoch *tag* of a failed-epoch cell is damaged into reading
       quiescent, its stored crc_log was computed over the failed epoch's
       bits: probing the seal against [fe] unmasks the damage, and the
       then-certified backup is restored (reported as Tag_restored, never
       as exact -- CRC-16 can collide). *)
  let restore cell bak ~seal =
    store (Incll.record cell) bak;
    store (Incll.epoch_id cell) seal;
    pwb cell;
    rolled := cell :: !rolled
  in
  let verify_cell ~metadata cell =
    let w = read (Incll.epoch_id cell) in
    let bak = read (Incll.backup cell) in
    let log_ok = Checksum.check_log ~word:w ~backup:bak ~cell in
    (* [>= fe], like the trusting scan: a pipelined overlap crash leaves
       re-logged cells one epoch ahead of the failed epoch word, and both
       in-flight epochs roll back. *)
    if Checksum.epoch_of w >= fe then begin
      if log_ok then
        restore cell bak ~seal:(Checksum.reseal_record w ~record:bak ~cell)
      else
        (* the undo log itself is unprovable: touch nothing, report *)
        add_damage
          (if metadata then Metadata_torn { cell } else Torn_log { cell })
    end
    else begin
      let rec_v = read (Incll.record cell) in
      if Checksum.check_rec ~word:w ~record:rec_v ~cell then begin
        (* Probe the log seal under both in-flight epochs: a damaged tag
           may have hidden a cell logged in [fe] or, mid-overlap, in
           [fe + 1]. *)
        let probed =
          if log_ok then None
          else if Checksum.check_log_at ~word:w ~backup:bak ~epoch:fe ~cell
          then Some fe
          else if
            Checksum.check_log_at ~word:w ~backup:bak ~epoch:(fe + 1) ~cell
          then Some (fe + 1)
          else None
        in
        match probed with
        | Some e ->
            restore cell bak
              ~seal:(Checksum.seal ~record:bak ~backup:bak ~epoch:e ~cell);
            add_damage (Tag_restored { cell })
        | None -> ()
      end
      else if log_ok then begin
        (* quiescent record corrupted: the certified backup is the best
           provable value, but it is one epoch stale -- the restore is a
           salvage, never reported as exact *)
        restore cell bak ~seal:(Checksum.reseal_record w ~record:bak ~cell);
        add_damage
          (if metadata then Metadata_torn { cell } else Torn_record { cell })
      end
      else
        add_damage
          (if metadata then Metadata_torn { cell } else Torn_log { cell })
    end
  in
  (* 2. Fixed metadata cells: the registry lengths govern the scan and
     the heap cursor governs reallocation, so unproven damage here grades
     as Unrecoverable. *)
  let fixed =
    l.Layout.cursor_cell :: l.Layout.slots_cell
    :: List.init l.Layout.max_threads (fun slot ->
           Layout.reglen_cell l ~line_words slot)
  in
  List.iter (verify_cell ~metadata:true) fixed;
  b.Simnvm.Backend.psync ();
  (* 3. Registry scan, every entry checked against its summary CRC and
     its decoded range bounds before any cell is trusted. *)
  let verify_data = verify_cell ~metadata:false in
  for slot = 0 to l.Layout.max_threads - 1 do
    let len =
      clamp 0 l.Layout.registry_per_slot
        (read (Incll.record (Layout.reglen_cell l ~line_words slot)))
    in
    scanned := !scanned + len;
    let seg = Layout.registry_segment l slot in
    for i = 0 to len - 1 do
      let eaddr = seg + i in
      let entry = read eaddr in
      let sum = read (Layout.regsum_addr l ~entry:eaddr) in
      if sum <> Checksum.regsum ~entry ~addr:eaddr then
        add_damage (Registry_corrupt { addr = eaddr })
      else begin
        let base, count = Layout.decode_entry entry in
        let last = Heap.cell_at_words ~line_words base (count - 1) in
        if
          base < l.Layout.heap_base
          || last + Incll.words > l.Layout.heap_limit
          || last < base
        then add_damage (Range_out_of_bounds { addr = eaddr; base; count })
        else Heap.iter_cells ~line_words base count verify_data
      end
    done
  done;
  b.Simnvm.Backend.psync ();
  (* 4. Restart points. Slot-table words are raw (no seal), so they get
     bounds checks; a wild pointer yields RP 0 plus damage rather than a
     read of arbitrary memory. *)
  let sc =
    clamp 0 l.Layout.max_threads (read (Incll.record l.Layout.slots_cell))
  in
  let rp_ids =
    List.init sc (fun slot ->
        let taddr = l.Layout.slot_table_base + slot in
        let cell = read taddr in
        if cell = 0 then (slot, 0)
        else if not (cell_in_heap l cell) then begin
          add_damage (Registry_corrupt { addr = taddr });
          (slot, 0)
        end
        else (slot, read (Incll.record cell)))
  in
  {
    vreport =
      {
        failed_epoch = fe;
        scanned = !scanned;
        rolled_back = !rolled;
        duration_ns = clock.ns;
        rp_ids;
      };
    verdict = verdict_of_damages !damages;
    read_retries = !retries;
  }

let run_verified_backend ?(max_read_retries = 4) ?(layout : Layout.t option)
    ?spans (b : Simnvm.Backend.t) =
  let layout =
    match layout with
    | Some l -> l
    | None ->
        Layout.v ~integrity:true ~line_words:b.Simnvm.Backend.line_words
          ~nvm_words:b.Simnvm.Backend.nvm_words
          ~max_threads:Runtime.default_config.Runtime.max_threads
          ~registry_per_slot:Runtime.default_config.Runtime.registry_per_slot
          ()
  in
  if not layout.Layout.integrity then
    invalid_arg "Recovery.run_verified: layout built without ~integrity";
  (* The scan is sequential: verification is dominated by the same
     registry reads the trusting scan performs, and one thread keeps the
     repair log and the media-retry state trivially race-free. So it is a
     plain loop over the backend, not a simulated world: the backend's
     charge hook adds to [clock], its tid hook answers 0, and no access is
     a preemption point, since nothing else runs. The backend keeps its
     bus, so the world's subscribers see the scan. *)
  let clock = { ns = 0.0 } in
  b.Simnvm.Backend.set_charge (fun ns -> clock.ns <- clock.ns +. ns);
  b.Simnvm.Backend.set_tid_provider scan_tid;
  let v =
    Fun.protect
      ~finally:(fun () ->
        b.Simnvm.Backend.set_charge no_charge;
        b.Simnvm.Backend.set_tid_provider no_tid)
      (fun () -> verified_scan ~max_read_retries layout b clock)
  in
  (match spans with
  | Some r ->
      Obs.Span.emit r ~name:"recovery" ~t0:0.0 ~t1:v.vreport.duration_ns
  | None -> ());
  v

let run_verified ?max_read_retries ?layout ?spans mem =
  run_verified_backend ?max_read_retries ?layout ?spans
    (Simnvm.Backend.of_memsys mem)
