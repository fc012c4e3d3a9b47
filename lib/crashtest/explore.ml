(* The crash explorer: exhaustive crash-point enumeration with adversarial
   persistent-image enumeration per crash point.

   One pilot run fixes the deterministic execution and counts its
   persist-relevant event boundaries (Crashpoint). For every boundary the
   world is re-executed from scratch and crashed exactly there; the set of
   dirty NVMM lines at that instant spans the adversary's degrees of
   freedom — which write-backs the power failure did or did not complete:

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
     image is unique and only the baseline is checked.

   The post-crash image is snapshotted once per crash point. Each image
   is installed with [restore] + targeted pokes, which undoes only the
   lines the previous image's recovery wrote, and handed to the
   scenario's [recover_check], which runs the system's recovery procedure
   and compares the recovered state against its oracle. *)

type instance = {
  mem : Simnvm.Memsys.t;
  run : unit -> unit;  (** build the world's structures and drive the ops *)
  completed : unit -> int;  (** operations fully completed so far *)
  recover_check : unit -> (unit, string) result;
      (** recover the current persistent image and check it against the
          oracle; called once per adversarial image *)
  recover_check_faulty : (unit -> (unit, string) result) option;
      (** oracle for images carrying injected media damage: recovery must
          either restore the exact snapshot or explicitly report the
          damage; [None] falls back to [recover_check] *)
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

let variants_for ~eadr ~pcso ~line_words ~max_images dirty =
  if eadr then ([ Baseline ], 0)
  else
    let extremes = if dirty = [] then [] else [ Evict_all ] in
    let singles =
      if pcso then
        List.map (fun dl -> Evict_line dl.Simnvm.Memsys.lineno) dirty
      else
        List.concat_map
          (fun dl ->
            List.filter_map
              (fun off ->
                if dl.Simnvm.Memsys.mask land (1 lsl off) <> 0 then
                  Some
                    (Evict_word ((dl.Simnvm.Memsys.lineno * line_words) + off))
                else None)
              (List.init line_words Fun.id))
          dirty
    in
    let all = (Baseline :: singles) @ extremes in
    let total = List.length all in
    if total <= max_images then (all, 0)
    else (List.filteri (fun i _ -> i < max_images) all, total - max_images)

let explore ?(max_images_per_point = 64) ?(stop_at_first_failure = false)
    ?(fault_seeds = []) (s : scenario) =
  let fault_options = None :: List.map Option.some fault_seeds in
  let pilot_inst = s.make ~n_ops:s.n_ops in
  match
    Crashpoint.pilot pilot_inst.mem ~completed:pilot_inst.completed
      pilot_inst.run
  with
  | exception e ->
      {
        scenario = s;
        boundaries = 0;
        images = 0;
        truncated = 0;
        failures =
          [
            {
              crash_index = 0;
              variant = Baseline;
              fault_seed = None;
              reason = "pilot run raised " ^ Printexc.to_string e;
            };
          ];
      }
  | boundaries, completed_at ->
  let failures = ref [] in
  let images = ref 0 in
  let truncated = ref 0 in
  let add f = failures := f :: !failures in
  let stop () = stop_at_first_failure && !failures <> [] in
  let k = ref 0 in
  while (not (stop ())) && !k < boundaries do
    let ck = !k in
    let ik = s.make ~n_ops:s.n_ops in
    let mem = ik.mem in
    (match
       try
         (Crashpoint.run_to mem ~crash_index:ck ik.run
           :> [ `Completed | `Crashed | `Raised of exn ])
       with e -> `Raised e
     with
    | `Raised e ->
        add
          {
            crash_index = ck;
            variant = Baseline;
            fault_seed = None;
            reason = "crash run raised " ^ Printexc.to_string e;
          }
    | `Completed ->
        add
          {
            crash_index = ck;
            variant = Baseline;
            fault_seed = None;
            reason =
              Printf.sprintf
                "re-execution diverged: boundary %d never reached" ck;
          }
    | `Crashed ->
        if ik.completed () <> completed_at.(ck) then
          add
            {
              crash_index = ck;
              variant = Baseline;
              fault_seed = None;
              reason =
                Printf.sprintf
                  "nondeterministic re-execution: %d ops completed, pilot \
                   saw %d"
                  (ik.completed ()) completed_at.(ck);
            }
        else begin
          let cfg = Simnvm.Memsys.config mem in
          let dirty = Simnvm.Memsys.dirty_nvm_lines mem in
          Simnvm.Memsys.crash mem;
          let base = Simnvm.Memsys.snapshot mem in
          let variants, dropped =
            variants_for ~eadr:cfg.Simnvm.Memsys.eadr
              ~pcso:cfg.Simnvm.Memsys.pcso
              ~line_words:cfg.Simnvm.Memsys.line_words
              ~max_images:max_images_per_point dirty
          in
          truncated := !truncated + dropped;
          List.iter
            (fun v ->
              List.iter
                (fun fs ->
                  if not (stop ()) then begin
                    (* restore clears poison / transient state from the
                       previous fault image as well as the pokes and the
                       previous recovery's writes *)
                    Simnvm.Memsys.restore mem base;
                    apply_variant mem dirty v;
                    let check =
                      match fs with
                      | None -> ik.recover_check
                      | Some seed ->
                          Faultplan.apply mem ~base ~dirty
                            (Faultplan.derive ~seed ~crash_index:ck
                               ~line_words:cfg.Simnvm.Memsys.line_words dirty);
                          Option.value ik.recover_check_faulty
                            ~default:ik.recover_check
                    in
                    incr images;
                    match check () with
                    | Ok () -> ()
                    | Error reason ->
                        add
                          {
                            crash_index = ck;
                            variant = v;
                            fault_seed = fs;
                            reason;
                          }
                    | exception e ->
                        add
                          {
                            crash_index = ck;
                            variant = v;
                            fault_seed = fs;
                            reason = "recovery raised " ^ Printexc.to_string e;
                          }
                  end)
                fault_options)
            variants
        end);
    incr k
  done;
  {
    scenario = s;
    boundaries;
    images = !images;
    truncated = !truncated;
    failures = List.rev !failures;
  }

(* Replay a single (crash point, image variant) — the counterexample
   reproduction path of the CLI. *)
let check_point ?fault_seed (s : scenario) ~crash_index ~variant =
  let ik = s.make ~n_ops:s.n_ops in
  match Crashpoint.run_to ik.mem ~crash_index ik.run with
  | `Completed ->
      Error
        (Printf.sprintf "boundary %d never reached (run completed)"
           crash_index)
  | `Crashed -> (
      let dirty = Simnvm.Memsys.dirty_nvm_lines ik.mem in
      Simnvm.Memsys.crash ik.mem;
      let base = Simnvm.Memsys.snapshot ik.mem in
      (* the volatile reset every explored image gets *)
      Simnvm.Memsys.restore ik.mem base;
      apply_variant ik.mem dirty variant;
      let check =
        match fault_seed with
        | None -> ik.recover_check
        | Some seed ->
            let lw = (Simnvm.Memsys.config ik.mem).Simnvm.Memsys.line_words in
            Faultplan.apply ik.mem ~base ~dirty
              (Faultplan.derive ~seed ~crash_index ~line_words:lw dirty);
            Option.value ik.recover_check_faulty ~default:ik.recover_check
      in
      match check () with
      | r -> r
      | exception e -> Error ("recovery raised " ^ Printexc.to_string e))
