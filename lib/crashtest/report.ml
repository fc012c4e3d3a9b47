(* Rendering of explorer results, and the [# crashmatrix ...]
   counterexample codec: a shrunk failure prints as one tag line that
   [respct_experiments replay] re-runs at the exact crash point. *)

let variant_to_string = function
  | Explore.Baseline -> "baseline"
  | Explore.Evict_all -> "all"
  | Explore.Evict_line l -> Printf.sprintf "line:%d" l
  | Explore.Evict_word a -> Printf.sprintf "word:%d" a

let variant_of_string s =
  match String.split_on_char ':' s with
  | [ "baseline" ] -> Ok Explore.Baseline
  | [ "all" ] -> Ok Explore.Evict_all
  | [ "line"; n ] -> (
      match int_of_string_opt n with
      | Some l -> Ok (Explore.Evict_line l)
      | None -> Error ("bad line number: " ^ n))
  | [ "word"; n ] -> (
      match int_of_string_opt n with
      | Some a -> Ok (Explore.Evict_word a)
      | None -> Error ("bad word address: " ^ n))
  | _ -> Error ("bad variant (baseline|all|line:N|word:N): " ^ s)

let pp_variant ppf v = Fmt.string ppf (variant_to_string v)

let pp_fault_seed ppf = function
  | None -> ()
  | Some s -> Fmt.pf ppf " fault-seed=%d" s

let pp_failure ppf (f : Explore.failure) =
  Fmt.pf ppf "crash@%d image=%a%a: %s" f.Explore.crash_index pp_variant
    f.Explore.variant pp_fault_seed f.Explore.fault_seed f.Explore.reason

type builder =
  sched_seed:int -> mem_seed:int -> pcso:bool -> n_ops:int -> Explore.scenario

type point = {
  crash_index : int;
  variant : Explore.variant;
  fault_seed : int option;
}

type witness = {
  scenario : string;
  sched_seed : int;
  mem_seed : int;
  pcso : bool;
  n_ops : int;
  point : point option;
}

let point_of (f : Explore.failure) =
  Some
    {
      crash_index = f.Explore.crash_index;
      variant = f.Explore.variant;
      fault_seed = f.Explore.fault_seed;
    }

let witness_of ~n_ops (s : Explore.scenario) f =
  {
    scenario = s.Explore.name;
    sched_seed = s.Explore.sched_seed;
    mem_seed = s.Explore.mem_seed;
    pcso = s.Explore.pcso;
    n_ops;
    point = point_of f;
  }

let print w =
  ( [],
    [
      ("scenario", w.scenario);
      ("ops", string_of_int w.n_ops);
      ("sched-seed", string_of_int w.sched_seed);
      ("mem-seed", string_of_int w.mem_seed);
      ("pcso", string_of_bool w.pcso);
    ]
    @
    match w.point with
    | None -> []
    | Some p ->
        [
          ("crash-index", string_of_int p.crash_index);
          ("image", variant_to_string p.variant);
        ]
        @ Option.fold ~none:[]
            ~some:(fun s -> [ ("fault-seed", string_of_int s) ])
            p.fault_seed )

let decode ~find _body fs =
  let open Obs.Cx in
  let ( let* ) = Result.bind in
  let* () =
    known fs
      [ "scenario"; "ops"; "sched-seed"; "mem-seed"; "pcso"; "crash-index";
        "image"; "fault-seed" ]
  in
  let* scenario =
    req fs "scenario" (fun id -> Option.map (fun _ -> id) (find id))
  in
  let* n_ops = req fs "ops" nat in
  let* sched_seed = req fs "sched-seed" int in
  let* mem_seed = req fs "mem-seed" int in
  let* pcso = req fs "pcso" bool in
  let* crash_index = req fs "crash-index" nat in
  let* variant =
    req fs "image" (fun v -> Result.to_option (variant_of_string v))
  in
  let* fault_seed = opt fs "fault-seed" int in
  Ok
    {
      scenario;
      sched_seed;
      mem_seed;
      pcso;
      n_ops;
      point = Some { crash_index; variant; fault_seed };
    }

(* A witness with a crash point replays exactly that point; one without
   (a shrink candidate) explores for the first failing point, under
   [fault_seeds] — search context that is not part of the witness. *)
let check ~fault_seeds ~(find : string -> builder option) w =
  let build =
    match find w.scenario with
    | Some b -> b
    | None -> invalid_arg ("unknown crashmatrix scenario " ^ w.scenario)
  in
  let sc =
    build ~sched_seed:w.sched_seed ~mem_seed:w.mem_seed ~pcso:w.pcso
      ~n_ops:w.n_ops
  in
  match w.point with
  | Some p -> (
      match
        Explore.check_point ?fault_seed:p.fault_seed sc
          ~crash_index:p.crash_index ~variant:p.variant
      with
      | Ok () -> Obs.Cx.Pass
      | Error reason -> Obs.Cx.Fail (w, reason))
  | None -> (
      match
        (Explore.explore ~stop_at_first_failure:true ~fault_seeds sc)
          .Explore.failures
      with
      | f :: _ -> Obs.Cx.Fail ({ w with point = point_of f }, f.Explore.reason)
      | [] -> Obs.Cx.Pass)

(* Smaller op counts, halving first and then closing in on n-1, so a
   monotone failure shrinks in about as many runs as a bisection. *)
let candidates w =
  let rec from m =
    if m >= w.n_ops then []
    else
      { w with n_ops = m; point = None }
      :: from (m + max 1 ((w.n_ops - m) / 2))
  in
  from (w.n_ops / 2)

let campaign ?(fault_seeds = []) ~find () : witness Obs.Cx.campaign =
  {
    Obs.Cx.tag = "crashmatrix";
    print;
    decode = decode ~find;
    check = check ~fault_seeds ~find;
    candidates;
    attempts = 1;
  }

let pp_counterexample ppf (s : witness Obs.Cx.shrunk) =
  let w = s.Obs.Cx.witness in
  let pp_point ppf = function
    | None -> ()
    | Some p ->
        Fmt.pf ppf "crash index %d, image %a%a@," p.crash_index pp_variant
          p.variant pp_fault_seed p.fault_seed
  in
  Fmt.pf ppf
    "@[<v2>counterexample %s (shrunk to %d ops):@,\
     seeds: scheduler=%d memory=%d pcso=%b@,\
     %a%s@,\
     %s@]"
    w.scenario w.n_ops w.sched_seed w.mem_seed w.pcso pp_point w.point
    s.Obs.Cx.reason
    (String.trim s.Obs.Cx.text)

let pp_outcome ppf (o : Explore.outcome) =
  let s = o.Explore.scenario in
  Fmt.pf ppf "%-18s ops=%-3d boundaries=%-5d images=%-5d%s %s"
    s.Explore.name s.Explore.n_ops o.Explore.boundaries o.Explore.images
    (if o.Explore.truncated > 0 then
       Printf.sprintf " (cap dropped %d)" o.Explore.truncated
     else "")
    (match o.Explore.failures with
    | [] -> "ok"
    | fs -> Printf.sprintf "FAIL (%d violations)" (List.length fs))

let outcome_json (o : Explore.outcome) =
  let s = o.Explore.scenario in
  Obs.Json.Obj
    [
      ("id", Obs.Json.String s.Explore.name);
      ("sched_seed", Obs.Json.Int s.Explore.sched_seed);
      ("mem_seed", Obs.Json.Int s.Explore.mem_seed);
      ("boundaries", Obs.Json.Int o.Explore.boundaries);
      ("images", Obs.Json.Int o.Explore.images);
      ("recoveries", Obs.Json.Int o.Explore.recoveries);
      ("truncated", Obs.Json.Int o.Explore.truncated);
      ("failures", Obs.Json.Int (List.length o.Explore.failures));
    ]
