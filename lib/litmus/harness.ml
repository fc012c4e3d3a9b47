module Rng = Simnvm.Rng

type violation = {
  v_world : World.id;
  v_variant : Axiom.variant;
  v_mutant : World.mutant option;
  v_sched_seed : int;
  v_image_seed : int;
  v_observed : int list;
}

type report = {
  r_name : string;
  r_world : World.id;
  r_variant : Axiom.variant;
  r_samples : int;
  r_skipped : bool;  (** axiom state cap hit: nothing checked *)
  r_states : int;
  r_violations : violation list;
}

let mutant_name = function
  | World.Drop_same_line_order -> "drop-same-line-order"

(* The [# check] tag-line fields. *)
let violation_fields locs v =
  [ ("world", World.id_name v.v_world);
    ("variant", Axiom.variant_name v.v_variant) ]
  @ Option.fold ~none:[]
      ~some:(fun m -> [ ("mutant", mutant_name m) ])
      v.v_mutant
  @ [
      ("sched", string_of_int v.v_sched_seed);
      ("image", string_of_int v.v_image_seed);
      ("observed", Fmt.str "%a" (Axiom.pp_outcome locs) v.v_observed);
    ]

let pp_violation locs ppf v =
  Fmt.string ppf (Obs.Cx.fields_to_string (violation_fields locs v))

(* Derive the (sched, image) seed stream for one (program, world,
   variant, seed) check deterministically, so a reported violation's
   seed pair replays bit-for-bit. *)
let check ?mutant ?(samples = 64) ?(seed = 1) ~world ~variant (p : Prog.t) :
    report =
  let ax = Axiom.allowed ~variant p in
  let skipped = not ax.Axiom.complete in
  let rng = Rng.create (seed lxor 0x117b5eed) in
  let cfg = World.run_cfg_of_variant variant in
  let violations = ref [] in
  if not skipped then
    for _ = 1 to samples do
      let sched_seed = 1 + Rng.int rng 1_000_000 in
      let image_seed = 1 + Rng.int rng 1_000_000 in
      let observed = World.run ?mutant ~world ~cfg ~sched_seed ~image_seed p in
      if not (Axiom.mem_outcome ax observed) then
        violations :=
          {
            v_world = world;
            v_variant = variant;
            v_mutant = mutant;
            v_sched_seed = sched_seed;
            v_image_seed = image_seed;
            v_observed = observed;
          }
          :: !violations
    done;
  {
    r_name = p.Prog.name;
    r_world = world;
    r_variant = variant;
    r_samples = (if skipped then 0 else samples);
    r_skipped = skipped;
    r_states = ax.Axiom.states;
    r_violations = List.rev !violations;
  }

let first_violation ?mutant ?samples ?seed ~worlds ~variants p =
  List.find_map
    (fun world ->
      List.find_map
        (fun variant ->
          match (check ?mutant ?samples ?seed ~world ~variant p).r_violations with
          | v :: _ -> Some v
          | [] -> None)
        variants)
    worlds

(* --- counterexamples ----------------------------------------------------

   Text: the program in {!Prog.to_string} form, then
   [# check world=.. variant=.. [mutant=..] sched=.. image=.. observed=..]
   ({!Prog.of_string} skips it as a comment). A witness without a
   violation is a shrink candidate: [check] searches it with the
   campaign's sampling context and fills the violation in. *)

type witness = Prog.t * violation option

let print ((p, v) : witness) =
  ( String.split_on_char '\n' (String.trim (Prog.to_string p)),
    Option.fold ~none:[] ~some:(violation_fields (Prog.locs p)) v )

(* "(d=0,f=1)" or "0,1": keep the digits, signs and commas *)
let observed_of_string ~arity o =
  let vs =
    String.to_seq o
    |> Seq.filter (fun c -> (c >= '0' && c <= '9') || c = ',' || c = '-')
    |> String.of_seq |> String.split_on_char ','
    |> List.filter (fun s -> s <> "")
    |> List.map int_of_string_opt
  in
  if List.length vs = arity && List.for_all Option.is_some vs then
    Some (List.map Option.get vs)
  else None

let decode body fs =
  let open Obs.Cx in
  let ( let* ) = Result.bind in
  let* p = Prog.of_string (String.concat "\n" body) in
  let* () =
    known fs [ "world"; "variant"; "mutant"; "sched"; "image"; "observed" ]
  in
  let* v_world = req fs "world" World.id_of_string in
  let* v_variant = req fs "variant" Axiom.variant_of_string in
  let* v_mutant =
    opt fs "mutant" (fun m ->
        if m = mutant_name World.Drop_same_line_order then
          Some World.Drop_same_line_order
        else None)
  in
  let* v_sched_seed = req fs "sched" int in
  let* v_image_seed = req fs "image" int in
  let* v_observed =
    req fs "observed" (observed_of_string ~arity:(List.length (Prog.locs p)))
  in
  Ok
    ( p,
      Some
        { v_world; v_variant; v_mutant; v_sched_seed; v_image_seed; v_observed }
    )

let observed_reason p o =
  Fmt.str "observed %a outside the allowed set"
    (Axiom.pp_outcome (Prog.locs p))
    o

(* Re-run the recorded seed pair with the recorded mutant planted; the
   violation reproduces iff the observation is outside the allowed set. *)
let rerun p v =
  let observed =
    World.run ?mutant:v.v_mutant ~world:v.v_world
      ~cfg:(World.run_cfg_of_variant v.v_variant)
      ~sched_seed:v.v_sched_seed ~image_seed:v.v_image_seed p
  in
  let ax = Axiom.allowed ~variant:v.v_variant p in
  if ax.Axiom.complete && not (Axiom.mem_outcome ax observed) then
    Obs.Cx.Fail
      ((p, Some { v with v_observed = observed }), observed_reason p observed)
  else Obs.Cx.Pass

let campaign ?mutant ?samples ?seed ?(worlds = World.all_ids)
    ?(variants = [ Axiom.Pcso ]) () : witness Obs.Cx.campaign =
  {
    Obs.Cx.tag = "check";
    print;
    decode;
    check =
      (fun (p, v) ->
        match v with
        | Some v -> rerun p v
        | None -> (
            match
              first_violation ?mutant ?samples ?seed ~worlds ~variants p
            with
            | Some v ->
                Obs.Cx.Fail ((p, Some v), observed_reason p v.v_observed)
            | None -> Obs.Cx.Pass));
    candidates =
      (fun (p, _) ->
        let cs = ref [] in
        Gen.shrink p (fun q ->
            if Prog.well_formed q then cs := (q, None) :: !cs);
        List.rev !cs);
    attempts = 1;
  }

type fuzz_result = {
  f_tested : int;
  f_skipped : int;
  f_failure : witness Obs.Cx.shrunk option;
}

let fuzz ?mutant ?(n = 500) ?(seed = 1) ?(samples = 8)
    ?(worlds = World.all_ids) ?(variants = [ Axiom.Pcso ]) () : fuzz_result =
  let rand = Random.State.make [| seed lxor 0xF0221e57 |] in
  let c = campaign ?mutant ~samples ~seed ~worlds ~variants () in
  let rec loop i skipped =
    if i >= n then { f_tested = n; f_skipped = skipped; f_failure = None }
    else
      let p = QCheck.Gen.generate1 ~rand Gen.gen_prog in
      let p = { p with Prog.name = Fmt.str "fuzz-%d-%d" seed i } in
      if
        List.exists
          (fun v -> not (Axiom.allowed ~variant:v p).Axiom.complete)
          variants
      then loop (i + 1) (skipped + 1)
      else
        match c.Obs.Cx.check (p, None) with
        | Obs.Cx.Pass -> loop (i + 1) skipped
        | Obs.Cx.Fail (w, reason) ->
            {
              f_tested = i + 1;
              f_skipped = skipped;
              f_failure = Some (Obs.Cx.minimize c (w, reason));
            }
  in
  loop 0 0

(* --- JSON ------------------------------------------------------------ *)

let violation_to_json v =
  Obs.Json.Obj
    [
      ("world", Obs.Json.String (World.id_name v.v_world));
      ("variant", Obs.Json.String (Axiom.variant_name v.v_variant));
      ( "mutant",
        Option.fold ~none:Obs.Json.Null
          ~some:(fun m -> Obs.Json.String (mutant_name m))
          v.v_mutant );
      ("sched_seed", Obs.Json.Int v.v_sched_seed);
      ("image_seed", Obs.Json.Int v.v_image_seed);
      ( "observed",
        Obs.Json.List (List.map (fun x -> Obs.Json.Int x) v.v_observed) );
    ]

let report_to_json r =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String r.r_name);
      ("world", Obs.Json.String (World.id_name r.r_world));
      ("variant", Obs.Json.String (Axiom.variant_name r.r_variant));
      ("samples", Obs.Json.Int r.r_samples);
      ("skipped", Obs.Json.Bool r.r_skipped);
      ("states", Obs.Json.Int r.r_states);
      ( "violations",
        Obs.Json.List (List.map violation_to_json r.r_violations) );
    ]

(* --- the litmus subcommand's jobs ------------------------------------- *)

(* One corpus entry: its axiom inclusions, then [check] under each of its
   variants in each world; with [verbose], every allowed set first. *)
let corpus_job ?mutant ?(verbose = false) ~samples ~seed ~worlds
    (e : Corpus.entry) () =
  let p = e.Corpus.e_prog and name = e.Corpus.e_name in
  let locs = Prog.locs p in
  let failed = Axiom.failed_inclusions p in
  let reports =
    List.concat_map
      (fun variant ->
        List.map
          (fun world -> check ?mutant ~samples ~seed ~world ~variant p)
          worlds)
      e.Corpus.e_variants
  in
  let allowed v =
    Fmt.str "%-16s %-9s allowed %a@." name (Axiom.variant_name v)
      (Axiom.pp_outcomes locs)
      (Axiom.allowed ~variant:v p).Axiom.outcomes
  in
  let inclusion (a, b) =
    Fmt.str "%-16s AXIOM FAIL: %s not within %s@." name (Axiom.variant_name a)
      (Axiom.variant_name b)
  in
  let line r =
    let world = World.id_name r.r_world
    and variant = Axiom.variant_name r.r_variant in
    match r.r_violations with
    | [] ->
        Fmt.str "%-16s %-6s %-9s ok (%d samples)@." name world variant
          r.r_samples
    | v :: _ ->
        Fmt.str "%-16s %-6s %-9s VIOLATION %a@." name world variant
          (pp_violation locs) v
  in
  Obs.Jobs.result
    ~ok:(failed = [] && List.for_all (fun r -> r.r_violations = []) reports)
    ~json:(Obs.Json.List (List.map report_to_json reports))
    (String.concat ""
       ((if verbose then List.map allowed e.Corpus.e_variants else [])
       @ List.map inclusion failed @ List.map line reports))

let fuzz_job ?mutant ~n ~seed ~samples ~worlds ~variant ~ce_file () =
  let r = fuzz ?mutant ~n ~seed ~samples ~worlds ~variants:[ variant ] () in
  Obs.Jobs.result ~ok:(r.f_failure = None)
    ?counterexample:(Option.map (fun s -> s.Obs.Cx.text) r.f_failure)
    ~json:
      Obs.Json.(
        Obj
          [
            ("tested", Int r.f_tested);
            ("skipped", Int r.f_skipped);
            ( "failure",
              match r.f_failure with
              | Some { Obs.Cx.witness = p, Some v; _ } ->
                  Obj
                    [
                      ("program", String (Prog.to_string p));
                      ("violation", violation_to_json v);
                    ]
              | _ -> Null );
          ])
    (Fmt.str "fuzz: %d programs tested, %d skipped (state cap)@." r.f_tested
       r.f_skipped
    ^
    match r.f_failure with
    | None -> ""
    | Some s ->
        Fmt.str "fuzz: shrunk violation (re-run: replay %s):@.%s%a" ce_file
          s.Obs.Cx.text Obs.Cx.pp_parity s.Obs.Cx.parity)

let jobs ?mutant ?verbose ?fuzz:fuzz_n ?(samples = 24) ?(seed = 1)
    ?(worlds = World.all_ids) ?(variant = Axiom.Pcso)
    ?(ce_file = "litmus-counterexample.txt") ~corpus () =
  if (not corpus) && fuzz_n = None then
    Error "nothing to do: pass --corpus or --fuzz N"
  else
    let corpus_jobs =
      if corpus then
        List.map (corpus_job ?mutant ?verbose ~samples ~seed ~worlds) Corpus.all
      else []
    in
    let fuzz_jobs =
      Option.fold ~none:[]
        ~some:(fun n ->
          [ fuzz_job ?mutant ~n ~seed ~samples ~worlds ~variant ~ce_file ])
        fuzz_n
    in
    let nc = List.length corpus_jobs in
    let close rs =
      {
        (Obs.Jobs.concat rs) with
        Obs.Jobs.json =
          Obs.Json.(
            Obj
              [
                ("schema", String "respct-litmus/v1");
                ("seed", Int seed);
                ("samples", Int samples);
                ("mutant", Bool (mutant = Some World.Drop_same_line_order));
                ("corpus", (Obs.Jobs.concat (Array.sub rs 0 nc)).Obs.Jobs.json);
                ("fuzz", if fuzz_n = None then Null else rs.(nc).Obs.Jobs.json);
              ]);
      }
    in
    Ok { Obs.Jobs.jobs = Array.of_list (corpus_jobs @ fuzz_jobs); close }
