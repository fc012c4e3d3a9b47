type policy = Clobber | Quadra

type opctx = {
  reads : (int, unit) Hashtbl.t;
  logged : (int, unit) Hashtbl.t; (* WAR vars already logged this op *)
  lines : (int, unit) Hashtbl.t; (* lines written this op *)
  (* Shadow bookkeeping for crash-test recovery (set_shadow): *)
  pre_words : (int, int) Hashtbl.t; (* addr -> pre-op value *)
  line_snaps : (int, int array list) Hashtbl.t;
      (* line -> cached images, newest first; the last one is pre-op *)
}

type t = {
  env : Simsched.Env.t;
  policy : policy;
  line_words : int;
  opctxs : opctx array;
  log_bases : int array; (* per-slot NVM log region bases *)
  log_cursors : int array; (* per-slot NVM log write cursors *)
  mutable shadow : bool;
  mutable stats_logged : int;
  mutable stats_flushed_lines : int;
}

let interception_ns = 2.0

(* Per-operation transaction bookkeeping (begin/commit metadata, sequence
   management) that both published systems execute around every operation. *)
let tx_overhead_ns = 50.0
let log_entry_words = 2

let create env ~policy ~max_threads ~log_base ~log_words_per_slot =
  {
    env;
    policy;
    line_words = Simsched.Env.line_words env;
    opctxs =
      Array.init max_threads (fun _ ->
          {
            reads = Hashtbl.create 32;
            logged = Hashtbl.create 8;
            lines = Hashtbl.create 8;
            pre_words = Hashtbl.create 8;
            line_snaps = Hashtbl.create 8;
          });
    log_bases =
      Array.init max_threads (fun slot -> log_base + (slot * log_words_per_slot));
    log_cursors =
      Array.init max_threads (fun slot -> log_base + (slot * log_words_per_slot));
    shadow = false;
    stats_logged = 0;
    stats_flushed_lines = 0;
  }

(* ------------------------------------------------------------------ *)
(* Crash-test shadow *)

let set_shadow t on = t.shadow <- on

let snapshot_line t line =
  let mem = Simsched.Env.mem t.env in
  Array.init t.line_words (fun off ->
      Simnvm.Memsys.peek mem ((line * t.line_words) + off))

(* Undo-log one variable (Clobber): the entry must reach NVMM before the
   overwrite, hence the fence on the write-ahead path. *)
let log_war t ~slot addr old_value =
  let cur = t.log_cursors.(slot) in
  Simsched.Env.store t.env cur addr;
  Simsched.Env.store t.env (cur + 1) old_value;
  Simsched.Env.pwb t.env cur;
  Simsched.Env.psync t.env;
  t.log_cursors.(slot) <- cur + log_entry_words;
  t.stats_logged <- t.stats_logged + 1

let intercepted_load t ~slot addr =
  let ctx = t.opctxs.(slot) in
  Simsched.Scheduler.charge (Simsched.Env.sched t.env) interception_ns;
  Hashtbl.replace ctx.reads addr ();
  Simsched.Env.load t.env addr

let intercepted_store t ~slot addr v =
  let ctx = t.opctxs.(slot) in
  Simsched.Scheduler.charge (Simsched.Env.sched t.env) interception_ns;
  let line = Simnvm.Addr.line_of ~line_words:t.line_words addr in
  if t.shadow then begin
    let mem = Simsched.Env.mem t.env in
    if not (Hashtbl.mem ctx.pre_words addr) then
      Hashtbl.replace ctx.pre_words addr (Simnvm.Memsys.peek mem addr);
    if not (Hashtbl.mem ctx.line_snaps line) then
      Hashtbl.replace ctx.line_snaps line [ snapshot_line t line ]
  end;
  (match t.policy with
  | Clobber ->
      if Hashtbl.mem ctx.reads addr && not (Hashtbl.mem ctx.logged addr) then begin
        Hashtbl.replace ctx.logged addr ();
        log_war t ~slot addr (Simsched.Env.load t.env addr)
      end
  | Quadra ->
      if not (Hashtbl.mem ctx.lines line) then
        (* In-line backup: one extra store to the same line; PCSO orders it
           before the data for free. Modelled as its time cost. *)
        Simsched.Scheduler.charge (Simsched.Env.sched t.env) 6.0);
  Hashtbl.replace ctx.lines line ();
  Simsched.Env.store t.env addr v;
  if t.shadow then
    Hashtbl.replace ctx.line_snaps line
      (snapshot_line t line :: Hashtbl.find ctx.line_snaps line)

let commit t ~slot =
  let ctx = t.opctxs.(slot) in
  if Hashtbl.length ctx.lines > 0 then begin
    Hashtbl.iter
      (fun line () ->
        Simsched.Env.pwb t.env (line * t.line_words);
        t.stats_flushed_lines <- t.stats_flushed_lines + 1)
      ctx.lines;
    Simsched.Env.psync t.env;
    if t.policy = Clobber && Hashtbl.length ctx.logged > 0 then begin
      (* reset the per-thread log head (lazy store, no fence) *)
      t.log_cursors.(slot) <- t.log_bases.(slot);
      Simsched.Scheduler.charge (Simsched.Env.sched t.env) 6.0
    end
  end;
  Hashtbl.reset ctx.reads;
  Hashtbl.reset ctx.logged;
  Hashtbl.reset ctx.lines;
  Hashtbl.reset ctx.pre_words;
  Hashtbl.reset ctx.line_snaps

let with_op t ~slot f =
  Simsched.Scheduler.charge (Simsched.Env.sched t.env) tx_overhead_ns;
  let r = f () in
  commit t ~slot;
  r

type shadow_recovery = Rolled_back of int | Torn_line of int

let recover_shadow t =
  let mem = Simsched.Env.mem t.env in
  let torn = ref None in
  let rolled = ref 0 in
  Array.iter
    (fun ctx ->
      match t.policy with
      | Clobber ->
          if Hashtbl.length ctx.pre_words > 0 then incr rolled;
          Hashtbl.fold (fun addr pre acc -> (addr, pre) :: acc) ctx.pre_words []
          |> List.sort compare
          |> List.iter (fun (addr, pre) ->
                 Simnvm.Memsys.poke_persisted mem addr pre)
      | Quadra ->
          if Hashtbl.length ctx.line_snaps > 0 then incr rolled;
          Hashtbl.fold (fun line snaps acc -> (line, snaps) :: acc)
            ctx.line_snaps []
          |> List.sort compare
          |> List.iter (fun (line, snaps) ->
                 let current =
                   Array.init t.line_words (fun off ->
                       Simnvm.Memsys.persisted mem ((line * t.line_words) + off))
                 in
                 if List.exists (fun s -> s = current) snaps then
                   let pre = List.nth snaps (List.length snaps - 1) in
                   Array.iteri
                     (fun off v ->
                       Simnvm.Memsys.poke_persisted mem
                         ((line * t.line_words) + off)
                         v)
                     pre
                 else if !torn = None then torn := Some line))
    t.opctxs;
  match !torn with Some line -> Torn_line line | None -> Rolled_back !rolled

let mem t bump =
  {
    Pds.Mem_iface.load = (fun ~slot addr -> intercepted_load t ~slot addr);
    store = (fun ~slot addr v -> intercepted_store t ~slot addr v);
    alloc = (fun ~slot:_ ~words -> Pds.Bump.alloc bump ~words);
    free = (fun ~slot:_ addr ~words -> Pds.Bump.free bump addr ~words);
  }

let stats_logged t = t.stats_logged
let stats_flushed_lines t = t.stats_flushed_lines
