(* The SIGKILL campaign over {!Prockill} trials and its shrunk
   [# prockill] counterexample. Kept out of [Prockill], which the service
   layer links for its digest oracle and which so stays free of the
   shrinker and the codec. *)

open Prockill
module Rng = Simnvm.Rng

(* The kill point is wall-clock real time, so reproduction is
   statistical: a candidate or a replay fails if any of its runs does. *)

let pp_violations = Fmt.(list ~sep:comma pp_violation)

let fields p =
  [
    ("seed", string_of_int p.seed);
    ("trial", string_of_int p.trial);
    ("threads", string_of_int p.threads);
    ("keyspace", string_of_int p.keyspace);
    ("delay_us", string_of_int p.kill_delay_us);
    ("mutant", if p.mutant then "1" else "0");
  ]

let decode _body fs =
  let open Obs.Cx in
  let ( let* ) = Result.bind in
  let* () =
    known fs [ "seed"; "trial"; "threads"; "keyspace"; "delay_us"; "mutant" ]
  in
  let* seed = req fs "seed" int in
  let* trial = req fs "trial" int in
  let* threads = req fs "threads" (range 1 ncounters) in
  let* keyspace = req fs "keyspace" (range 1 max_int) in
  let* kill_delay_us = req fs "delay_us" nat in
  let* mutant = req fs "mutant" bit in
  Ok { seed; trial; threads; keyspace; kill_delay_us; mutant }

let in_dir dir f =
  match dir with Some d -> f d | None -> with_scratch_dir "respct-prockill" f

let campaign ?dir () : params Obs.Cx.campaign =
  {
    Obs.Cx.tag = "prockill";
    print = (fun p -> ([], fields p));
    decode;
    check =
      (fun p ->
        match (in_dir dir (fun dir -> run_trial p ~dir)).o_violations with
        | [] -> Obs.Cx.Pass
        | vs -> Obs.Cx.Fail (p, Fmt.str "%a" pp_violations vs));
    candidates =
      (fun p ->
        List.concat
          [
            (if p.threads > 1 then [ { p with threads = 1 } ] else []);
            (if p.keyspace > 16 then [ { p with keyspace = p.keyspace / 2 } ]
             else []);
            (* not below 1 ms: earlier kills often land before the first
               seal after the mutant arms, and the line would replay only
               about half the time *)
            (if p.kill_delay_us / 2 >= 1000 then
               [ { p with kill_delay_us = p.kill_delay_us / 2 } ]
             else []);
          ]);
    attempts = 3;
  }

(* ------------------------------------------------------------------ *)
(* Campaign. *)

type mutant_result = {
  m_attempts : int;
  m_first : outcome option;
  m_shrunk : params Obs.Cx.shrunk option;
}

type campaign = {
  c_seed : int;
  c_kills : int;
  c_trials : outcome list;
  c_mutant : mutant_result option;
  c_skipped : string option;
}

let violation_count c =
  List.fold_left (fun n o -> n + List.length o.o_violations) 0 c.c_trials

let skipped_campaign ~seed ~kills reason =
  {
    c_seed = seed;
    c_kills = kills;
    c_trials = [];
    c_mutant = None;
    c_skipped = Some reason;
  }

let run ?(kills = 50) ?(seed = 42) ?(max_delay_us = 25_000)
    ?(mutant_trials = 12) ?(progress = fun (_ : string) -> ()) ?dir () :
    campaign =
  if not (fork_available ()) then
    skipped_campaign ~seed ~kills "fork/SIGKILL unavailable on this platform"
  else
    in_dir dir @@ fun dir ->
    let rng = Rng.create seed in
    let trials =
      List.init kills (fun i ->
          let p =
            {
              seed;
              trial = i;
              threads = 1 + (i mod 3);
              keyspace = 64 * (1 + (i mod 2));
              kill_delay_us = 50 + Rng.int rng (max 1 max_delay_us);
              mutant = false;
            }
          in
          let o =
            run_trial
              ~recovery_kill:(Rng.bool rng)
              ~recovery_kill_delay_us:(100 + Rng.int rng 2_000)
              p ~dir
          in
          if (i + 1) mod 25 = 0 then
            progress (Printf.sprintf "%d/%d kills" (i + 1) kills);
          o)
    in
    let mutant =
      if mutant_trials <= 0 then None
      else begin
        let rec hunt k =
          if k >= mutant_trials then
            { m_attempts = k; m_first = None; m_shrunk = None }
          else
            let p =
              {
                seed;
                trial = 100_000 + k;
                threads = 2;
                keyspace = 64;
                kill_delay_us = 2_000 + Rng.int rng 20_000;
                mutant = true;
              }
            in
            let o = run_trial p ~dir in
            if o.o_violations <> [] then begin
              progress "mutant detected; shrinking";
              let reason = Fmt.str "%a" pp_violations o.o_violations in
              {
                m_attempts = k + 1;
                m_first = Some o;
                m_shrunk =
                  Some (Obs.Cx.minimize (campaign ~dir ()) (p, reason));
              }
            end
            else hunt (k + 1)
        in
        Some (hunt 0)
      end
    in
    { c_seed = seed; c_kills = kills; c_trials = trials; c_mutant = mutant;
      c_skipped = None }

(* ------------------------------------------------------------------ *)
(* JSON report ("respct-prockill/v2"). *)

let json_of_campaign (c : campaign) : Obs.Json.t =
  let hist = Hashtbl.create 8 in
  List.iter
    (fun o ->
      Hashtbl.replace hist o.o_verdict
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist o.o_verdict)))
    c.c_trials;
  let verdicts =
    List.filter_map
      (fun k ->
        Option.map (fun n -> (k, Obs.Json.Int n)) (Hashtbl.find_opt hist k))
      [ "clean"; "repaired"; "salvaged"; "unrecoverable"; "none" ]
  in
  let mutant =
    match c.c_mutant with
    | None -> Obs.Json.Null
    | Some m ->
        Obs.Json.Obj
          [
            ("detected", Obs.Json.Bool (Option.is_some m.m_shrunk));
            ("attempts", Obs.Json.Int m.m_attempts);
            ( "first",
              match m.m_first with
              | Some o -> json_of_outcome o
              | None -> Obs.Json.Null );
            ( "shrunk",
              match m.m_shrunk with
              | Some { Obs.Cx.reason; parity; _ } ->
                  Obs.Json.Obj
                    [
                      ("reason", Obs.Json.String reason);
                      ("replayed", Obs.Json.Bool (Result.is_ok parity));
                    ]
              | None -> Obs.Json.Null );
            ( "replay",
              match m.m_shrunk with
              | Some s -> Obs.Json.String (String.trim s.Obs.Cx.text)
              | None -> Obs.Json.Null );
          ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "respct-prockill/v2");
      ("seed", Obs.Json.Int c.c_seed);
      ("kills", Obs.Json.Int c.c_kills);
      ( "skipped",
        match c.c_skipped with
        | Some r -> Obs.Json.String r
        | None -> Obs.Json.Null );
      ("violations", Obs.Json.Int (violation_count c));
      ("verdicts", Obs.Json.Obj verdicts);
      ("mutant", mutant);
      ("trials", Obs.Json.List (List.map json_of_outcome c.c_trials));
    ]
