(* Shared workload generators for the test suites.

   The structure tests (test_pds, test_baselines), the runtime tests
   (test_respct) and the crash-matrix tests (test_crashtest) all drive
   data structures with seeded random op mixes and crash the world
   somewhere in the middle. The draw logic lives here so the suites agree
   on what an "op mix" is, and so every randomized crash-injection
   property prints a replayable seed when it fails instead of an opaque
   QCheck counterexample. Finite mixes delegate to Crashtest.Workmix —
   the same generator the crashmatrix CLI explores, which keeps
   `# crashmatrix` replay lines valid across the test suite and the
   command line. *)

module Workmix = Crashtest.Workmix
module Rng = Simnvm.Rng

(* ------------------------------------------------------------------ *)
(* Per-suite QCheck seeding.

   [QCheck_alcotest.to_alcotest] seeds every property from one
   process-wide source (QCHECK_SEED, or a random self-init), so the
   cases a suite draws depend on global state shared with every other
   suite in the binary — registering a new generator or suite can shift
   the streams of unrelated, previously-green properties. Deriving the
   state from the suite and test names instead makes each property's
   stream independent (adding the litmus generators cannot reseed the
   refmodel differential) and deterministic by default, while an
   explicit QCHECK_SEED still reseeds everything for exploration. *)

let suite_seed name =
  let base =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None -> 0x5eed)
    | None -> 0x5eed
  in
  (* FNV-1a over the name, mixed with the base seed *)
  let h = ref (base lxor 0x811c9dc5) in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    name;
  !h

let suite_rand name = Random.State.make [| suite_seed name |]

let to_alcotest ?speed_level ~suite (test : QCheck.Test.t) =
  let (QCheck2.Test.Test cell) = test in
  let rand = suite_rand (suite ^ "/" ^ QCheck2.Test.get_name cell) in
  QCheck_alcotest.to_alcotest ?speed_level ~rand test

type map_op = Workmix.map_op =
  | Insert of int * int
  | Remove of int
  | Search of int

type queue_op = Workmix.queue_op = Enqueue of int | Dequeue

let pp_map_op = Workmix.pp_map_op
let pp_queue_op = Workmix.pp_queue_op

(* Finite replayable mixes (the crashmatrix workloads). *)
let map_ops = Workmix.map_ops
let queue_ops = Workmix.queue_ops

(* ------------------------------------------------------------------ *)
(* Infinite streams for run-until-crash workers. Each draws from the
   caller's Rng in a fixed order (key first, then the op kind), so a
   (generator, seed) pair pins the whole schedule. *)

(* Update-heavy mix of the ResPCT crash trials: remove w.p. 1/3, insert
   otherwise. *)
let update_heavy_map_op rng ~key_range ~value =
  let key = Rng.int rng key_range in
  match Rng.int rng 3 with 0 -> Remove key | _ -> Insert (key, value)

(* Uniform insert/remove/search mix of the conformance suites. *)
let uniform_map_op rng ~key_range ~value =
  let key = Rng.int rng key_range in
  match Rng.int rng 3 with
  | 0 -> Insert (key, value)
  | 1 -> Remove key
  | _ -> Search key

(* Enqueue-biased (3/5) stream: queues drain without some bias. *)
let biased_queue_op rng ~value =
  if Rng.int rng 5 < 3 then Enqueue value else Dequeue

(* Fair coin stream for the conformance suites. *)
let uniform_queue_op rng ~value = if Rng.bool rng then Enqueue value else Dequeue

(* ------------------------------------------------------------------ *)
(* QCheck arbitraries. Crash-injection cases are (seed, crash time)
   pairs; the printer emits the replay recipe so a failing property run
   tells you exactly which world to rebuild. *)

type crash_case = { seed : int; crash_us : int }

let crash_ns c = float_of_int c.crash_us *. 1_000.0

let pp_crash_case ppf c =
  Fmt.pf ppf "replay: seed=%d crash_at=%dus (crash_ns=%.0f)" c.seed c.crash_us
    (crash_ns c)

let arb_crash_case ?(max_seed = 10_000) ?(min_us = 25) ?(max_us = 300) () =
  QCheck.make
    ~print:(Fmt.str "%a" pp_crash_case)
    QCheck.Gen.(
      map2
        (fun seed crash_us -> { seed; crash_us })
        (1 -- max_seed) (min_us -- max_us))

(* A seeded finite map/queue mix: generates only the seed, derives the
   ops deterministically, and prints both so failures replay. *)
let arb_map_mix ?(key_range = 13) ?(max_seed = 10_000) ~n () =
  QCheck.make
    ~print:(fun seed ->
      Fmt.str "@[<v>map mix seed=%d n=%d:@ %a@]" seed n
        (Fmt.list ~sep:Fmt.sp pp_map_op)
        (map_ops ~key_range ~seed ~n ()))
    QCheck.Gen.(1 -- max_seed)

let arb_queue_mix ?(max_seed = 10_000) ~n () =
  QCheck.make
    ~print:(fun seed ->
      Fmt.str "@[<v>queue mix seed=%d n=%d:@ %a@]" seed n
        (Fmt.list ~sep:Fmt.sp pp_queue_op)
        (queue_ops ~seed ~n ()))
    QCheck.Gen.(1 -- max_seed)

(* ------------------------------------------------------------------ *)
(* Seeded random IR programs for the static-analysis soundness
   properties: the straight-line family must agree exactly with
   Idempotence.classify over interpreter traces, the branchy family
   must have its dynamic WAR set contained in the static one. All
   structure derives from the seed via the repo Rng, and the printer
   emits the whole program so a failing case replays from the output. *)

module Ir = Analysis.Ir

let ir_persistent_vars = [ "p0"; "p1"; "p2"; "p3" ]
let ir_transient_vars = [ "t0"; "t1" ]

let ir_choose rng l = List.nth l (Rng.int rng (List.length l))

(* Expressions: depth-bounded arithmetic over the declared universe. *)
let rec ir_gen_expr rng ~vars ~depth =
  if depth = 0 || Rng.int rng 3 = 0 then
    if Rng.bool rng then Ir.Int (Rng.int rng 10) else Ir.Var (ir_choose rng vars)
  else
    let op =
      ir_choose rng [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Mod; Ir.Lt; Ir.Eq ]
    in
    Ir.Binop
      ( op,
        ir_gen_expr rng ~vars ~depth:(depth - 1),
        ir_gen_expr rng ~vars ~depth:(depth - 1) )

(* Straight-line, single-thread: assignments and restart points only. *)
let straightline_ir ~seed ~n : Ir.program =
  let rng = Rng.create seed in
  let vars = ir_persistent_vars @ ir_transient_vars in
  let next_rp = ref 0 in
  let stmt () =
    if Rng.int rng 5 = 0 then begin
      let id = !next_rp in
      incr next_rp;
      Ir.Rp id
    end
    else
      Ir.Assign (ir_choose rng vars, ir_gen_expr rng ~vars ~depth:2)
  in
  {
    Ir.pname = Fmt.str "straightline-%d" seed;
    persistent = List.map (fun v -> (v, 1)) ir_persistent_vars;
    transient = List.map (fun v -> (v, 0)) ir_transient_vars;
    threads = [ { Ir.tname = "main"; body = List.init n (fun _ -> stmt ()) } ];
  }

(* Branchy, optionally two-threaded: if/while (loops bounded by
   dedicated, never-otherwise-assigned counters so the interpreter
   terminates), balanced critical sections on one shared lock with no
   restart point inside. *)
let branchy_ir ?(threads = 2) ~seed ~n () : Ir.program =
  let rng = Rng.create seed in
  let vars = ir_persistent_vars @ ir_transient_vars in
  let next_rp = ref 0 in
  let counters = ref [] in
  let next_counter = ref 0 in
  let rec gen_block ~in_lock ~budget acc =
    if budget <= 0 then List.rev acc
    else
      let roll = Rng.int rng 10 in
      if roll < 4 then
        gen_block ~in_lock ~budget:(budget - 1)
          (Ir.Assign (ir_choose rng vars, ir_gen_expr rng ~vars ~depth:2)
          :: acc)
      else if roll < 5 && not in_lock then begin
        let id = !next_rp in
        incr next_rp;
        gen_block ~in_lock ~budget:(budget - 1) (Ir.Rp id :: acc)
      end
      else if roll < 7 then
        let cond = ir_gen_expr rng ~vars ~depth:1 in
        let a = gen_block ~in_lock ~budget:(budget / 2) [] in
        let b = gen_block ~in_lock ~budget:(budget / 2) [] in
        gen_block ~in_lock ~budget:(budget / 2) (Ir.If (cond, a, b) :: acc)
      else if roll < 9 then begin
        let c = Fmt.str "lc%d" !next_counter in
        incr next_counter;
        counters := c :: !counters;
        let body =
          gen_block ~in_lock ~budget:(budget / 2) []
          @ [ Ir.Assign (c, Ir.Binop (Ir.Add, Ir.Var c, Ir.Int 1)) ]
        in
        let loop =
          Ir.While (Ir.Binop (Ir.Lt, Ir.Var c, Ir.Int (1 + Rng.int rng 3)), body)
        in
        gen_block ~in_lock ~budget:(budget / 2)
          (loop :: Ir.Assign (c, Ir.Int 0) :: acc)
      end
      else if not in_lock then
        let body = gen_block ~in_lock:true ~budget:(budget / 2) [] in
        (* [acc] is reverse-ordered, so prepend the block reversed. *)
        gen_block ~in_lock ~budget:(budget / 2)
          (List.rev_append ((Ir.Acquire 0 :: body) @ [ Ir.Release 0 ]) acc)
      else gen_block ~in_lock ~budget:(budget - 1) (Ir.Skip :: acc)
  in
  let mk_thread i =
    { Ir.tname = Fmt.str "w%d" i; body = gen_block ~in_lock:false ~budget:n [] }
  in
  let threads = List.init (max 1 threads) mk_thread in
  {
    Ir.pname = Fmt.str "branchy-%d" seed;
    persistent = List.map (fun v -> (v, 1)) ir_persistent_vars;
    transient =
      List.map (fun v -> (v, 0)) (ir_transient_vars @ List.rev !counters);
    threads;
  }

(* Straight-line flush-aware family for the Axcheck soundness battery:
   only litmus-fragment shapes (constant stores, loads into transient
   registers, Faa-shaped RMWs, Pwb/Psync, at most one Crash compiled as
   the halt-flag assignment), so [Litmus.Axcheck.compile_ir] always
   accepts them and the Persistate claims can be judged against the
   axiomatic enumeration. 1–2 threads to also exercise the multi-writer
   demotion and the catch-the-other-thread-anywhere crash join. *)
let flushline_ir ~seed ~n : Ir.program =
  let rng = Rng.create seed in
  let nv = 2 + Rng.int rng 2 in
  let pvars = List.filteri (fun i _ -> i < nv) [ "x"; "y"; "z" ] in
  let regs = [ "r0"; "r1" ] in
  let nt = 1 + Rng.int rng 2 in
  let op () =
    match Rng.int rng 8 with
    | 0 | 1 | 2 -> Ir.Assign (ir_choose rng pvars, Ir.Int (1 + Rng.int rng 9))
    | 3 | 4 -> Ir.Pwb (ir_choose rng pvars)
    | 5 -> Ir.Psync
    | 6 -> Ir.Assign (ir_choose rng regs, Ir.Var (ir_choose rng pvars))
    | _ ->
        let v = ir_choose rng pvars in
        Ir.Assign (v, Ir.Binop (Ir.Add, Ir.Var v, Ir.Int (1 + Rng.int rng 3)))
  in
  let bodies =
    List.init nt (fun _ ->
        List.init (1 + Rng.int rng (max 1 n)) (fun _ -> op ()))
  in
  let has_crash = Rng.int rng 3 < 2 in
  let bodies =
    if not has_crash then bodies
    else
      let t = Rng.int rng nt in
      let crash = Ir.Assign (Litmus.World.halt_var, Ir.Int 1) in
      List.mapi
        (fun i b ->
          if i <> t then b
          else
            let pos = Rng.int rng (List.length b + 1) in
            List.filteri (fun j _ -> j < pos) b
            @ [ crash ]
            @ List.filteri (fun j _ -> j >= pos) b)
        bodies
  in
  {
    Ir.pname = Fmt.str "flushline-%d" seed;
    persistent = List.map (fun v -> (v, 0)) pvars;
    transient =
      List.map (fun v -> (v, 0)) regs
      @ (if has_crash then [ (Litmus.World.halt_var, 0) ] else []);
    threads =
      List.mapi
        (fun i body -> { Ir.tname = Fmt.str "t%d" i; body })
        bodies;
  }

let arb_straightline_ir ?(max_seed = 1_000_000) ~n () =
  QCheck.make
    ~print:(fun seed -> Ir.program_to_string (straightline_ir ~seed ~n))
    QCheck.Gen.(1 -- max_seed)

let arb_branchy_ir ?(max_seed = 1_000_000) ?threads ~n () =
  QCheck.make
    ~print:(fun seed -> Ir.program_to_string (branchy_ir ?threads ~seed ~n ()))
    QCheck.Gen.(1 -- max_seed)

let arb_flushline_ir ?(max_seed = 1_000_000) ~n () =
  QCheck.make
    ~print:(fun seed -> Ir.program_to_string (flushline_ir ~seed ~n))
    QCheck.Gen.(1 -- max_seed)

(* ------------------------------------------------------------------ *)
(* Litmus programs for the persistency-model fuzzer (test_litmus):
   biased toward same-line conflicts, fences and cross-line
   message-passing, with a structural shrinker. Defined in lib/litmus
   so the CLI fuzzer and the suite draw from the same distribution. *)

let arb_litmus_prog = Litmus.Gen.arb_prog
let litmus_prog_of_string = Litmus.Prog.of_string
