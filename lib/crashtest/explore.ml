(* The crash explorer: exhaustive crash-point enumeration with adversarial
   persistent-image enumeration per crash point.

   A pilot run fixes the deterministic execution: it counts its
   persist-relevant event boundaries (Crashpoint) and fingerprints each
   one. One checking run of a fresh instance then stops at every
   boundary, at the instant its event is published, and checks the crash
   images there in place. The set of dirty NVMM lines at that instant
   spans the adversary's degrees of freedom — which write-backs the power
   failure did or did not complete:

   - under PCSO, any subset of dirty lines may have been written back as
     whole-line snapshots; we check the baseline image (no extra
     write-back), each single-line eviction, and the all-lines image;
   - under the word-granular ablation (pcso = false), any subset of dirty
     *words* may have persisted; we check each single-word eviction (the
     minimal reordering InCLL cannot survive) plus the baseline and
     all-lines images. Word images are illegal under PCSO and are never
     generated there — they would report false positives against
     InCLL-based systems;
   - under eADR the cache is in the persistence domain: the post-crash
     image is unique, every dirty line drained, and only it is checked.

   At a boundary the world's memory is suspended (Memsys.suspend): its
   volatile state is swapped for a spare and the persistent image
   journaled. Each image is installed with [restore] + targeted pokes,
   which undoes only the lines the previous image's recovery wrote and
   resets only the lines it filled, and handed to the scenario's
   [recover_check], which runs the system's recovery procedure on that
   same memory and compares the recovered state against its oracle.
   [resume] then rewinds the image and swaps the volatile state back,
   and the world runs on to the next boundary. So the exploration costs
   one run of the world plus the recoveries, not one run per boundary,
   and its bookkeeping follows what each boundary and image touch, not
   the cache geometry: the memory indexes its dirty slots, so the
   fingerprint and the dirty-line list of a boundary cost its dirty
   lines (6.5 of 256 slots on average), not a sweep of the cache. On the
   crash-matrix benchmark's two worlds (seed 42: 1 931 boundaries,
   16 158 images, 3 371 recoveries) an exploration of both takes about
   24 ms, about 70% of it in the recoveries, each a verified scan plus
   the oracle at about 5 µs (best of 30 explorations, unscaled, on a
   2-vCPU shared VM; 28 ms and 3 792 recoveries when every boundary
   swept the cache and every write-back emptied the memo); a suspend
   and resume pair costs about 0.25 µs and a restore 0.2 µs (scaled to
   the benchmark's reference box).

   Most of those recoveries would repeat one already made, so each
   distinct image is recovered once per segment: a maximal run of
   boundaries with no NVMM write-back among their events and one oracle
   key. Inside a segment the persisted image stays what it was at the
   segment's first boundary, so an image is fully determined by what its
   variant installs on top — nothing, dirty lines or one word — and the
   memo keyed on that content by structural equality hands a repeat the
   verdict of its first recovery, with no restore, no install and no
   recovery. A boundary whose images all repeat is never suspended.
   Images carrying a fault plan are always recovered: the plan depends
   on the crash index.

   A segment that starts with a write-back of line L under PCSO and
   keeps the oracle key carries verdicts over from the boundary just
   before it. A key of that boundary that wrote L back with exactly the
   words L now holds persisted installs, on the old image, the same
   image as the rest of the key installs on the new one, so the rest
   takes the key's verdict. That is exact, and carrying only the last
   boundary's keys keeps the cost at a handful of keys per write-back
   (rekeying the whole segment's memo cost more than the recoveries it
   saved). The memo still empties at a new oracle key and at every
   write-back under pcso = false, where a spontaneous write-back may
   persist part of a line and word variants install single words. On
   the benchmark's worlds this cuts the recoveries from 3 792 to 3 371;
   the distinct images per oracle key number 3 189.

   The fingerprints make the two runs one deterministic execution: at
   every boundary the checking run must have completed as many
   operations as the pilot and hold the same dirty lines, word for word.
   Both runs fold the digest over the dirty lines in place, so the pilot
   costs its run plus the dirty lines of each boundary (0.7 ms against a
   plain run's 0.2 ms on those worlds, 1.1 ms when every boundary swept
   all 256 cache slots).

   [check_point], the replay of one counterexample, is the same checking
   run stopped after its one boundary, without the memo: it recovers its
   one image on a world of its own, the independent reference. *)

type instance = {
  mem : Simnvm.Memsys.t;
  run : unit -> unit;  (** build the world's structures and drive the ops *)
  completed : unit -> int;  (** operations fully completed so far *)
  recover_check : unit -> (unit, string) result;
      (** recover the current persistent image and check it against the
          oracle; called once per adversarial image, mid-run, on the
          suspended memory *)
  recover_check_faulty : (unit -> (unit, string) result) option;
      (** oracle for images carrying injected media damage: recovery must
          either restore the exact snapshot or explicitly report the
          damage; [None] falls back to [recover_check] *)
  oracle_key : (unit -> int) option;
      (** changes whenever the host state the oracle reads does; [None]:
          that state may change between any two boundaries *)
}

type scenario = {
  name : string;
  sched_seed : int;
  mem_seed : int;
  pcso : bool;
  n_ops : int;
  make : n_ops:int -> instance;
}

type variant =
  | Baseline
  | Evict_line of int
  | Evict_word of int
  | Evict_all

type failure = {
  crash_index : int;
  variant : variant;
  fault_seed : int option;
  reason : string;
}

type outcome = {
  scenario : scenario;
  boundaries : int;
  images : int;
  recoveries : int;
  truncated : int;
  failures : failure list;
}

let poke_dirty_words mem lw (dl : Simnvm.Memsys.dirty_line) =
  for off = 0 to lw - 1 do
    if dl.Simnvm.Memsys.mask land (1 lsl off) <> 0 then
      Simnvm.Memsys.poke_persisted mem
        ((dl.Simnvm.Memsys.lineno * lw) + off)
        dl.Simnvm.Memsys.data.(off)
  done

(* Clean words of a dirty line already equal the backing store, so poking
   only the dirty words is exactly a whole-line write-back. *)
let apply_variant mem dirty v =
  let lw = (Simnvm.Memsys.config mem).Simnvm.Memsys.line_words in
  match v with
  | Baseline -> ()
  | Evict_all -> List.iter (poke_dirty_words mem lw) dirty
  | Evict_line lineno ->
      List.iter
        (fun dl ->
          if dl.Simnvm.Memsys.lineno = lineno then poke_dirty_words mem lw dl)
        dirty
  | Evict_word addr ->
      let lineno = addr / lw and off = addr mod lw in
      List.iter
        (fun dl ->
          if dl.Simnvm.Memsys.lineno = lineno then
            Simnvm.Memsys.poke_persisted mem addr dl.Simnvm.Memsys.data.(off))
        dirty

(* The images of a boundary, in order: the baseline, one per dirty
   line (under the ablation, one per dirty word), then all lines; the
   first [max_images] of them, and how many more there were. *)
let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let variants_for ~eadr ~pcso ~line_words ~max_images dirty =
  if eadr then ([| Evict_all |], 0)
  else
    let singles =
      List.fold_left
        (fun n (dl : Simnvm.Memsys.dirty_line) ->
          n + if pcso then 1 else popcount dl.Simnvm.Memsys.mask)
        0 dirty
    in
    let total = 1 + singles + match dirty with [] -> 0 | _ :: _ -> 1 in
    let kept = if total <= max_images then total else max 0 max_images in
    let vs = Array.make kept Baseline and i = ref 1 in
    let add v =
      if !i < kept then vs.(!i) <- v;
      incr i
    in
    List.iter
      (fun (dl : Simnvm.Memsys.dirty_line) ->
        let lineno = dl.Simnvm.Memsys.lineno in
        if pcso then add (Evict_line lineno)
        else
          for off = 0 to line_words - 1 do
            if dl.Simnvm.Memsys.mask land (1 lsl off) <> 0 then
              add (Evict_word ((lineno * line_words) + off))
          done)
      dirty;
    (match dirty with [] -> () | _ :: _ -> add Evict_all);
    (vs, if total <= max_images then 0 else total - max_images)

(* What a variant installs on the segment's persisted image, flattened
   into one key: for each dirty line it writes back, in cache order, the
   line number and then the cached words (the clean words equal the
   image's already, so the words fix the line); or -1, the address and
   the value of the one word it persists. Line numbers are not negative,
   so the two shapes never meet, and two variants install the same
   content exactly when their keys are equal. *)
let put_line ~line_words key pos (dl : Simnvm.Memsys.dirty_line) =
  key.(pos) <- dl.Simnvm.Memsys.lineno;
  for j = 0 to line_words - 1 do
    key.(pos + 1 + j) <- dl.Simnvm.Memsys.data.(j)
  done

let find_dirty dirty lineno =
  List.find_opt (fun dl -> dl.Simnvm.Memsys.lineno = lineno) dirty

let installs ~line_words dirty = function
  | Baseline -> [||]
  | Evict_all ->
      let stride = 1 + line_words in
      let key = Array.make (stride * List.length dirty) 0 in
      List.iteri (fun i dl -> put_line ~line_words key (i * stride) dl) dirty;
      key
  | Evict_line lineno -> (
      match find_dirty dirty lineno with
      | Some dl ->
          let key = Array.make (1 + line_words) 0 in
          put_line ~line_words key 0 dl;
          key
      | None -> [||])
  | Evict_word addr -> (
      match find_dirty dirty (addr / line_words) with
      | Some dl -> [| -1; addr; dl.Simnvm.Memsys.data.(addr mod line_words) |]
      | None -> [||])

(* The verdict table hashes every word of a key. The generic hash reads
   only the first ten, and the all-lines keys of one segment share their
   first lines: on the benchmark's worlds they piled up to 47 to a
   bucket. The shift folds high bits down, so keys that differ only
   there (line-aligned pointers) still spread over the buckets. Keys
   are compared word by word, as ints, not by the polymorphic [=]. *)
module Verdicts = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash (key : t) =
    let h = ref (Array.length key) in
    for i = 0 to Array.length key - 1 do
      let x = (!h lxor key.(i)) * 0x100000001b3 in
      h := x lxor (x lsr 29)
    done;
    !h land max_int
end)

(* The verdicts of the current segment, those of the last boundary's
   images, and the recoveries run so far. *)
type memo = {
  verdicts : (unit, string) result Verdicts.t;
  mutable key : int option;  (* the segment's oracle key *)
  mutable last : (int array * (unit, string) result) list;
  mutable recoveries : int;
}

(* The position of [line]'s block in a key of whole-line blocks, or -1. *)
let block_of ~line_words (key : int array) line =
  let pos = ref 0 in
  while !pos < Array.length key && key.(!pos) <> line do
    pos := !pos + 1 + line_words
  done;
  if !pos < Array.length key then !pos else -1

(* Whether the block at [pos] writes its line back with exactly the
   words [mem] now holds persisted for it. *)
let installs_persisted mem ~line_words (key : int array) pos =
  let base = key.(pos) * line_words and same = ref true in
  for j = 0 to line_words - 1 do
    if key.(pos + 1 + j) <> Simnvm.Memsys.persisted mem (base + j) then
      same := false
  done;
  !same

(* A segment that starts with an NVMM write-back of [line] under PCSO
   inherits the verdicts of the last boundary's images that wrote [line]
   back with exactly the words it now holds in [mem]: the old image plus
   such a key is the new image plus the rest of the key, so the key less
   [line]'s block names the same image in the new segment. *)
let carry memo mem ~line_words line =
  let stride = 1 + line_words in
  List.iter
    (fun (key, verdict) ->
      let pos = block_of ~line_words key line in
      if pos >= 0 && installs_persisted mem ~line_words key pos then begin
        let rest = Array.make (Array.length key - stride) 0 in
        Array.blit key 0 rest 0 pos;
        Array.blit key (pos + stride) rest pos (Array.length rest - pos);
        Verdicts.replace memo.verdicts rest verdict
      end)
    memo.last

(* Raised out of the crash-point subscriber to end a checking run. *)
exception Stop

(* The one per-boundary check, shared by [explore] and [check_point]. At
   a boundary of the running world, for each variant and, for each, each
   fault seed option, take the verdict from [memo] or else recover:
   restore the boundary's image, install the variant and the fault plan
   and run the oracle; then hand the verdict to [judge], which says
   whether to go on. The memory is suspended at the first recovery and
   resumed on every exit path. *)
let check_boundary ?memo inst ~crash_index ~dirty variants fault_options judge
    =
  let mem = inst.mem in
  let lw = (Simnvm.Memsys.config mem).Simnvm.Memsys.line_words in
  let suspended = ref None in
  let recover v fs =
    let base =
      match !suspended with
      | Some base -> base
      | None ->
          let base = Simnvm.Memsys.suspend mem in
          suspended := Some base;
          base
    in
    Option.iter (fun m -> m.recoveries <- m.recoveries + 1) memo;
    (* restore clears poison / transient state from the previous fault
       image as well as the pokes and the previous recovery's writes *)
    Simnvm.Memsys.restore mem base;
    apply_variant mem dirty v;
    let check =
      match fs with
      | None -> inst.recover_check
      | Some seed ->
          Faultplan.apply mem ~base ~dirty
            (Faultplan.derive ~seed ~crash_index ~line_words:lw dirty);
          Option.value inst.recover_check_faulty ~default:inst.recover_check
    in
    match check () with
    | r -> r
    | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
  in
  let rec go i fss =
    if i < Array.length variants then
      match fss with
      | [] -> go (i + 1) fault_options
      | fs :: rest ->
          let v = variants.(i) in
          let verdict =
            match (memo, fs) with
            | Some m, None -> (
                let key = installs ~line_words:lw dirty v in
                let r =
                  match Verdicts.find_opt m.verdicts key with
                  | Some r -> r
                  | None ->
                      let r = recover v None in
                      Verdicts.add m.verdicts key r;
                      r
                in
                m.last <- (key, r) :: m.last;
                r)
            | _ -> recover v fs
          in
          if judge v fs verdict then go i rest
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (Simnvm.Memsys.resume mem) !suspended)
    (fun () -> go 0 fault_options)

(* Run a fresh instance of [s] to completion, calling [at inst k ev] at
   every boundary [k], whose event is [ev]. [reached] counts the
   boundaries passed. *)
let checking_run s ~at :
    [ `Completed of int | `Stopped | `Raised of exn * int ] =
  let inst = s.make ~n_ops:s.n_ops in
  let reached = ref 0 in
  match
    Crashpoint.walk inst.mem inst.run ~at:(fun k ev ->
        reached := k + 1;
        at inst k ev)
  with
  | () -> `Completed !reached
  | exception Stop -> `Stopped
  | exception e -> `Raised (e, !reached)

let explore ?(max_images_per_point = 64) ?(stop_at_first_failure = false)
    ?(fault_seeds = []) (s : scenario) =
  let fault_options = None :: List.map Option.some fault_seeds in
  let failures = ref [] and images = ref 0 and truncated = ref 0 in
  let memo =
    { verdicts = Verdicts.create 64; key = None; last = []; recoveries = 0 }
  in
  let add crash_index variant fault_seed reason =
    failures := { crash_index; variant; fault_seed; reason } :: !failures
  in
  let outcome boundaries =
    {
      scenario = s;
      boundaries;
      images = !images;
      recoveries = memo.recoveries;
      truncated = !truncated;
      failures = List.rev !failures;
    }
  in
  let pilot = s.make ~n_ops:s.n_ops in
  match Crashpoint.pilot pilot.mem ~completed:pilot.completed pilot.run with
  | exception e ->
      add 0 Baseline None ("pilot run raised " ^ Printexc.to_string e);
      outcome 0
  | prints ->
      let boundaries = Array.length prints in
      let stopped () = stop_at_first_failure && !failures <> [] in
      (* A write-back or a new oracle key starts a segment; a world
         without a key starts one at every boundary. Under PCSO a
         write-back under the same key carries the verdicts that still
         name an image of the new segment. *)
      let enter_segment inst ev =
        let key = Option.map (fun f -> f ()) inst.oracle_key in
        let same_key =
          match (key, memo.key) with
          | Some k, Some k' -> k = k'
          | _ -> false
        in
        (match ev with
        | _ when not same_key ->
            Verdicts.reset memo.verdicts;
            memo.key <- key
        | Simnvm.Event.Writeback { line; _ } ->
            Verdicts.reset memo.verdicts;
            let cfg = Simnvm.Memsys.config inst.mem in
            if cfg.Simnvm.Memsys.pcso then
              carry memo inst.mem ~line_words:cfg.Simnvm.Memsys.line_words
                line
        | _ -> ());
        memo.last <- []
      in
      let at inst k ev =
        enter_segment inst ev;
        if k < boundaries then begin
          let seen =
            Crashpoint.fingerprint inst.mem ~completed:(inst.completed ())
          and want = prints.(k) in
          if seen.Crashpoint.completed <> want.Crashpoint.completed then
            add k Baseline None
              (Printf.sprintf
                 "nondeterministic re-execution: %d ops completed, pilot saw \
                  %d"
                 seen.Crashpoint.completed want.Crashpoint.completed)
          else if seen.Crashpoint.dirty <> want.Crashpoint.dirty then
            add k Baseline None
              "nondeterministic re-execution: dirty lines differ from the \
               pilot's"
          else begin
            let dirty = Simnvm.Memsys.dirty_nvm_lines inst.mem in
            let cfg = Simnvm.Memsys.config inst.mem in
            let variants, dropped =
              variants_for ~eadr:cfg.Simnvm.Memsys.eadr
                ~pcso:cfg.Simnvm.Memsys.pcso
                ~line_words:cfg.Simnvm.Memsys.line_words
                ~max_images:max_images_per_point dirty
            in
            truncated := !truncated + dropped;
            check_boundary ~memo inst ~crash_index:k ~dirty variants
              fault_options (fun v fs verdict ->
                incr images;
                Result.iter_error (add k v fs) verdict;
                not (stopped ()))
          end;
          if stopped () then raise Stop
        end
      in
      (* Once stopped, how the abandoned run unwinds is not a finding. *)
      (match checking_run s ~at with
      | _ when stopped () -> ()
      | `Stopped -> ()
      | `Completed reached ->
          if reached < boundaries then
            add reached Baseline None
              (Printf.sprintf
                 "re-execution diverged: boundary %d never reached" reached)
      | `Raised (e, reached) ->
          add reached Baseline None ("crash run raised " ^ Printexc.to_string e));
      outcome boundaries

(* Replay a single (crash point, image variant) — the counterexample
   reproduction path: the checking run of [explore], stopped after its
   one boundary. A world that raises on the way to the crash point is
   reported with the reason [explore] gives it. *)
let check_point ?fault_seed (s : scenario) ~crash_index ~variant =
  let verdict = ref None in
  let at inst k _ =
    if k = crash_index then begin
      check_boundary inst ~crash_index
        ~dirty:(Simnvm.Memsys.dirty_nvm_lines inst.mem)
        [| variant |] [ fault_seed ]
        (fun _ _ r ->
          verdict := Some r;
          false);
      raise Stop
    end
  in
  match (checking_run s ~at, !verdict) with
  | _, Some r -> r
  | `Raised (e, _), None -> Error ("crash run raised " ^ Printexc.to_string e)
  | (`Completed _ | `Stopped), None ->
      Error
        (Printf.sprintf "boundary %d never reached (run completed)" crash_index)
