(* Axiomatic soundness gate for the static durability analyzer.

   The Persistate lattice claims, for a compiled litmus program, a
   must-durable set: variables whose persisted word provably equals the
   coherent word at every crash. This module holds that claim to the
   axiomatic PCSO spec itself: enumerate every (coherent memory,
   persistent image) pair reachable at a terminal state and require
   pmem(v) = mem(v) for every claimed v in every pair. Checked against
   Pcso_lazy by default — the weakest (largest-outcome-set) persistency
   variant, which dominates Pcso and Eadr, so a claim surviving it
   survives them all.

   The same machinery grades the planted mutants: the claims of the
   CORRECT program must be violated by its strip-psync variant (the
   gate has teeth), with greedy shrinking over the original program and
   a replayable [# axcheck] counterexample file. *)

module Ir = Analysis.Ir
module Persistate = Analysis.Persistate
module Vars = Analysis.Dataflow.Vars
module Refmodel = Simnvm.Refmodel

(* --- planted mutants over litmus programs ---------------------------- *)

type mutant = Analysis.Flushlint.mutant = Strip_psync | Inject_redundant_pwb

let mutant_name = Analysis.Flushlint.mutant_name

let map_ops suffix f (p : Prog.t) =
  {
    p with
    Prog.name = p.Prog.name ^ suffix;
    threads = List.map (List.concat_map f) p.Prog.threads;
  }

let strip_psync p =
  map_ops "+strip-psync" (function Prog.Psync -> [] | op -> [ op ]) p

let inject_redundant_pwb p =
  map_ops "+redundant-pwb"
    (function Prog.Pwb l -> [ Prog.Pwb l; Prog.Pwb l ] | op -> [ op ])
    p

let apply_mutant = function
  | Strip_psync -> strip_psync
  | Inject_redundant_pwb -> inject_redundant_pwb

(* --- IR <-> Prog bridge ----------------------------------------------- *)

(* Inverse of [World.compile] for straight-line IR: the round-trip
   property test's other half, and how the gen_common flush-aware IR
   generator reaches the axiomatic enumerator. *)
let compile_ir ?lines ?layout (ir : Ir.program) : (Prog.t, string) result =
  let persistent = List.map fst ir.Ir.persistent in
  let is_p v = List.mem v persistent in
  if List.exists (fun (_, init) -> init <> 0) ir.Ir.persistent then
    Error "compile_ir: litmus images start zeroed (nonzero initial value)"
  else
    let layout =
      match layout with
      | Some l -> l
      | None ->
          let line v =
            match lines with
            | Some f -> f v
            | None ->
                let rec idx i = function
                  | [] -> i
                  | w :: _ when w = v -> i
                  | _ :: tl -> idx (i + 1) tl
                in
                idx 0 persistent
          in
          let next_off = Hashtbl.create 4 in
          List.map
            (fun v ->
              let lid = line v in
              let off =
                Option.value ~default:0 (Hashtbl.find_opt next_off lid)
              in
              Hashtbl.replace next_off lid (off + 1);
              (v, lid, off))
            persistent
    in
    let op = function
      | Ir.Pwb v when is_p v -> Ok (Prog.Pwb v)
      | Ir.Psync -> Ok Prog.Psync
      | Ir.Assign (v, _) when v = World.halt_var -> Ok Prog.Crash
      | Ir.Assign (v, Ir.Int k) when is_p v -> Ok (Prog.St (v, k))
      | Ir.Assign (r, Ir.Var l) when (not (is_p r)) && is_p l ->
          Ok (Prog.Ld (l, r))
      | Ir.Assign (v, Ir.Binop (Ir.Add, Ir.Var v', Ir.Int k))
        when is_p v && v = v' ->
          Ok (Prog.Faa (v, k))
      | s ->
          Error
            (Fmt.str "compile_ir: statement has no litmus form: %a"
               Ir.pp_stmt s)
    in
    let thread (t : Ir.thread) =
      List.fold_left
        (fun acc s ->
          match (acc, op s) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok ops, Ok o -> Ok (o :: ops))
        (Ok []) t.Ir.body
      |> Result.map List.rev
    in
    let rec threads = function
      | [] -> Ok []
      | t :: tl -> (
          match (thread t, threads tl) with
          | Ok ops, Ok rest -> Ok (ops :: rest)
          | Error e, _ | _, Error e -> Error e)
    in
    match threads ir.Ir.threads with
    | Error e -> Error e
    | Ok ths ->
        let p = { Prog.name = ir.Ir.pname; layout; threads = ths } in
        (match Prog.check p with
        | [] -> Ok p
        | e :: _ -> Error ("compile_ir: " ^ e))

(* --- static claims ---------------------------------------------------- *)

type claims = {
  c_must_durable : Prog.loc list;  (** layout order *)
  c_may_dirty : Prog.loc list;
  c_summary : Persistate.summary;
}

let static_claims (p : Prog.t) : claims =
  let ir = World.compile p in
  let ps = Persistate.create ~lines:(Prog.line_of p) ir in
  let s = Persistate.summarize ~crash_var:World.halt_var ps in
  let sel set = List.filter (fun l -> Vars.mem l set) (Prog.locs p) in
  {
    c_must_durable = sel s.Persistate.s_must_durable;
    c_may_dirty = sel s.Persistate.s_may_dirty;
    c_summary = s;
  }

(* --- the containment check ------------------------------------------- *)

type violation = { v_loc : Prog.loc; v_mem : int list; v_pmem : int list }

type report = {
  r_prog : Prog.t;
  r_variant : Axiom.variant;
  r_skipped : bool;  (** state cap hit: nothing was decided *)
  r_states : int;
  r_terminals : int;  (** distinct (mem, pmem) terminal pairs *)
  r_claimed : Prog.loc list;
  r_empirical : Prog.loc list;
      (** locations durable in every terminal pair — the precision
          ceiling the static claim is measured against *)
  r_violations : violation list;
}

let check ?max_states ?(variant = Axiom.Pcso_lazy) ?claims (p : Prog.t) :
    report =
  let claims =
    match claims with Some c -> c | None -> static_claims p
  in
  let locs = Array.of_list (Prog.locs p) in
  let n = Array.length locs in
  let ix l =
    let rec go i = if locs.(i) = l then i else go (i + 1) in
    go 0
  in
  let claimed_ix = List.map ix claims.c_must_durable in
  let always = Array.make n true in
  let pairs = Hashtbl.create 256 in
  let violations = ref [] in
  let record mem pmem =
    let pmem = if variant = Axiom.Eadr then mem else pmem in
    let key = (Array.to_list mem, Array.to_list pmem) in
    if not (Hashtbl.mem pairs key) then begin
      Hashtbl.replace pairs key ();
      for i = 0 to n - 1 do
        if pmem.(i) <> mem.(i) then always.(i) <- false
      done;
      List.iter
        (fun i ->
          if pmem.(i) <> mem.(i) then
            violations :=
              { v_loc = locs.(i); v_mem = fst key; v_pmem = snd key }
              :: !violations)
        claimed_ix
    end
  in
  let complete, states = Axiom.enumerate ?max_states ~variant ~record p in
  {
    r_prog = p;
    r_variant = variant;
    r_skipped = not complete;
    r_states = states;
    r_terminals = Hashtbl.length pairs;
    r_claimed = claims.c_must_durable;
    r_empirical =
      (if complete then
         Array.to_list locs
         |> List.filteri (fun i _ -> always.(i))
       else []);
    r_violations = List.rev !violations;
  }

let precision (r : report) =
  match List.length r.r_empirical with
  | 0 -> 1.0
  | e -> float_of_int (List.length r.r_claimed) /. float_of_int e

(* --- refmodel dirtiness (the may-dirty dynamic bound) ----------------- *)

(* One seeded schedule of the worlds' compile-and-step path against the
   eager-clwb reference model in the worlds' memory configuration;
   returns the litmus lines still cache-dirty when the program stops. The
   static may-dirty set must cover every returned line (some member
   carries the Dirty bit): evictions only clean lines, so any
   [evict_rate] keeps the direction sound. *)
let ref_dirty_lines ?(sched_seed = 1) ?(evict_rate = 0.0) (p : Prog.t) :
    int list =
  let m =
    Refmodel.create
      (World.mem_config
         ~cfg:{ World.eadr = false; ablation = false; evict_rate }
         ~seed:(sched_seed lxor 0xd112) ())
  in
  ignore (World.drive ~sched_seed (Analysis.Exec.of_refmodel m) p);
  List.filter
    (fun lid -> Refmodel.is_cached_dirty m (lid * World.line_words))
    (Prog.lines p)

(* --- counterexamples: shrink + replay --------------------------------- *)

type cx = {
  cx_prog : Prog.t;  (** the ORIGINAL (shrunk) program, claims intact *)
  cx_variant : Axiom.variant;
  cx_mutant : mutant option;  (** [None]: the program itself violates *)
  cx_loc : Prog.loc;
}

(* The first location whose claim (the program's own) is violated by
   its (optionally mutated) enumeration. *)
let first_violation ?mutant ~variant (p : Prog.t) =
  if not (Prog.well_formed p) then None
  else
    let claims = static_claims p in
    if claims.c_must_durable = [] then None
    else
      let target = match mutant with None -> p | Some m -> apply_mutant m p in
      let r = check ~variant ~claims target in
      match r.r_violations with
      | v :: _ when not r.r_skipped -> Some v.v_loc
      | _ -> None

let violates ?mutant ~variant p =
  Option.is_some (first_violation ?mutant ~variant p)

let claim_violated l = Printf.sprintf "must-durable claim on %s violated" l

(* Text: the program text followed by
   [# axcheck variant=.. [mutant=..] loc=.. must-durable=..]; the claims
   are re-derived on replay, so must-durable is informational. Shrinking
   works on the ORIGINAL program: each candidate's own claims must be
   violated by its own mutated version, so the shrunk artifact is a
   complete, self-contained repro. *)
let campaign : cx Obs.Cx.campaign =
  {
    Obs.Cx.tag = "axcheck";
    print =
      (fun c ->
        ( String.split_on_char '\n' (String.trim (Prog.to_string c.cx_prog)),
          [ ("variant", Axiom.variant_name c.cx_variant) ]
          @ Option.fold ~none:[]
              ~some:(fun m -> [ ("mutant", mutant_name m) ])
              c.cx_mutant
          @ [
              ("loc", c.cx_loc);
              ( "must-durable",
                String.concat "," (static_claims c.cx_prog).c_must_durable );
            ] ));
    decode =
      (fun body fs ->
        let open Obs.Cx in
        let ( let* ) = Result.bind in
        let* cx_prog = Prog.of_string (String.concat "\n" body) in
        let* () = known fs [ "variant"; "mutant"; "loc"; "must-durable" ] in
        let* cx_variant = req fs "variant" Axiom.variant_of_string in
        let* cx_mutant =
          opt fs "mutant" (fun s ->
              List.find_opt (fun m -> mutant_name m = s)
                Analysis.Flushlint.mutants)
        in
        let* cx_loc =
          req fs "loc" (fun l ->
              if List.mem l (Prog.locs cx_prog) then Some l else None)
        in
        Ok { cx_prog; cx_variant; cx_mutant; cx_loc });
    check =
      (fun c ->
        match
          first_violation ?mutant:c.cx_mutant ~variant:c.cx_variant c.cx_prog
        with
        | Some l -> Obs.Cx.Fail ({ c with cx_loc = l }, claim_violated l)
        | None -> Obs.Cx.Pass);
    candidates =
      (fun c ->
        let cs = ref [] in
        Gen.shrink c.cx_prog (fun p -> cs := { c with cx_prog = p } :: !cs);
        List.rev !cs);
    attempts = 1;
  }

let shrunk c = Obs.Cx.minimize campaign (c, claim_violated c.cx_loc)

let counterexample ?mutant ~variant p =
  Option.map
    (fun l ->
      shrunk
        { cx_prog = p; cx_variant = variant; cx_mutant = mutant; cx_loc = l })
    (first_violation ?mutant ~variant p)

(* --- the CLI demo program --------------------------------------------- *)

(* A WAL append in litmus form — the straight-line twin of the
   Analysis.Corpus wal-append program: payload persisted and fenced,
   commit mark persisted and fenced, crash. The static claim is
   {payload, commit} must-durable; stripping the psyncs leaves both
   merely pending, which Pcso_lazy is free to lose. *)
let demo : Prog.t =
  {
    Prog.name = "axdemo-wal";
    layout = [ ("payload", 0, 0); ("commit", 1, 0) ];
    threads =
      [
        [
          Prog.St ("payload", 7);
          Prog.Pwb "payload";
          Prog.Psync;
          Prog.St ("commit", 1);
          Prog.Pwb "commit";
          Prog.Psync;
          Prog.Crash;
        ];
      ];
  }

(* --- fuzz -------------------------------------------------------------- *)

type fuzz_result = {
  fz_tested : int;
  fz_skipped : int;  (** enumeration hit the state cap *)
  fz_claims : int;  (** must-durable claims verified across programs *)
  fz_failure : cx Obs.Cx.shrunk option;
}

let fuzz ?(n = 300) ?(seed = 1) ?(variant = Axiom.Pcso_lazy) ?mutate () :
    fuzz_result =
  let rand = Random.State.make [| seed lxor 0xAc5eed |] in
  let rec loop i skipped verified =
    let result fz_tested fz_failure =
      { fz_tested; fz_skipped = skipped; fz_claims = verified; fz_failure }
    in
    if i >= n then result n None
    else
      let p = QCheck.Gen.generate1 ~rand Gen.gen_prog in
      let p = { p with Prog.name = Fmt.str "axfuzz-%d-%d" seed i } in
      let claims = static_claims p in
      let target = match mutate with None -> p | Some m -> apply_mutant m p in
      let r = check ~variant ~claims target in
      match r.r_violations with
      | _ when r.r_skipped -> loop (i + 1) (skipped + 1) verified
      | [] ->
          loop (i + 1) skipped (verified + List.length claims.c_must_durable)
      | v :: _ ->
          result (i + 1)
            (Some
               (shrunk
                  {
                    cx_prog = p;
                    cx_variant = variant;
                    cx_mutant = mutate;
                    cx_loc = v.v_loc;
                  }))
  in
  loop 0 0 0

(* --- JSON -------------------------------------------------------------- *)

let fuzz_to_json (f : fuzz_result) =
  Obs.Json.Obj
    [
      ("tested", Obs.Json.Int f.fz_tested);
      ("skipped", Obs.Json.Int f.fz_skipped);
      ("claims_verified", Obs.Json.Int f.fz_claims);
      ( "failure",
        match f.fz_failure with
        | None -> Obs.Json.Null
        | Some s -> Obs.Json.String s.Obs.Cx.text );
    ]

(* --- the analyze subcommand's jobs -------------------------------------- *)

(* Stripping the psyncs of [demo] must violate one of its claims: the
   gate's teeth. *)
let wal_twin_job ~ce_file () =
  match counterexample ~mutant:Strip_psync ~variant:Axiom.Pcso_lazy demo with
  | None ->
      Obs.Jobs.result ~ok:false
        "axcheck: stripped WAL twin shows no claim violation — the gate \
         lost its teeth\n"
  | Some s ->
      Obs.Jobs.result ~ok:true ~counterexample:s.Obs.Cx.text
        (Fmt.str
           "axcheck: WAL twin claim violated under %s (re-run: replay %s):@.%s%a"
           (mutant_name Strip_psync) ce_file s.Obs.Cx.text Obs.Cx.pp_parity
           s.Obs.Cx.parity)

let fuzz_job ~n ~seed ~ce_file () =
  let r = fuzz ~n ~seed () in
  Obs.Jobs.result ~ok:(r.fz_failure = None)
    ?counterexample:(Option.map (fun s -> s.Obs.Cx.text) r.fz_failure)
    ~json:(fuzz_to_json r)
    (Fmt.str
       "axcheck: %d programs tested, %d skipped (state cap), %d must-durable \
        claims verified@."
       r.fz_tested r.fz_skipped r.fz_claims
    ^
    match r.fz_failure with
    | None -> ""
    | Some s ->
        Fmt.str "axcheck: shrunk soundness violation (re-run: replay %s):@.%s%a"
          ce_file s.Obs.Cx.text Obs.Cx.pp_parity s.Obs.Cx.parity)

let jobs ?mutant ?fuzz:fz ~ce_file () =
  let twin = if mutant = Some Strip_psync then [ wal_twin_job ~ce_file ] else []
  and fuzzed =
    Option.fold ~none:[] ~some:(fun (n, seed) -> [ fuzz_job ~n ~seed ~ce_file ]) fz
  in
  {
    Obs.Jobs.jobs = Array.of_list (twin @ fuzzed);
    close =
      (fun rs ->
        {
          (Obs.Jobs.concat rs) with
          Obs.Jobs.json =
            Obs.Json.Obj
              (if fz = None then []
               else [ ("axcheck", rs.(Array.length rs - 1).Obs.Jobs.json) ]);
        });
  }
