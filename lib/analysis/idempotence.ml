(* Idempotence analysis of executions (paper Table 2 and section 3.3.2,
   after De Kruijf et al., PLDI'12).

   A program sub-part re-executed from a restart point computes the same
   result iff no variable's first access sequence is a write-after-read
   (WAR): re-execution would read the value a previous execution already
   overwrote. The paper derives from this the rule for which persistent
   variables need InCLL logging; this module implements that rule as one
   streaming automaton over executed accesses — the automation direction
   the paper's section 6 sketches as future work. *)

type access = Read of string | Write of string

type classification =
  | No_dependency  (** never written *)
  | Raw  (** written, and no first write preceded by a read: idempotent *)
  | War  (** read before the first write: requires logging *)

(* The section 3.3.2 state machine: per thread, a segment-local record of
   whether each key's first access since the thread's last restart point
   was a read. Classification is cumulative across segments: one WAR
   segment anywhere makes the key require logging. *)
type region_state = Read_first | Written

type 'k t = {
  threads : (int, ('k, region_state) Hashtbl.t) Hashtbl.t;
  written : ('k, unit) Hashtbl.t;
  war : ('k, unit) Hashtbl.t;
  mutable segments : int;
}

let create () =
  {
    threads = Hashtbl.create 8;
    written = Hashtbl.create 64;
    war = Hashtbl.create 16;
    segments = 0;
  }

let segment t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 32 in
      Hashtbl.add t.threads tid s;
      s

let read t ~tid k =
  let s = segment t tid in
  if not (Hashtbl.mem s k) then Hashtbl.replace s k Read_first

let write t ~tid k =
  let s = segment t tid in
  if Hashtbl.find_opt s k = Some Read_first then Hashtbl.replace t.war k ();
  Hashtbl.replace s k Written;
  Hashtbl.replace t.written k ()

let restart_point t ~tid =
  t.segments <- t.segments + 1;
  Hashtbl.remove t.threads tid

let verdict t k =
  if Hashtbl.mem t.war k then War
  else if Hashtbl.mem t.written k then Raw
  else No_dependency

let war t = Hashtbl.fold (fun k () acc -> k :: acc) t.war [] |> List.sort compare

let write_only t =
  Hashtbl.fold
    (fun k () acc -> if Hashtbl.mem t.war k then acc else k :: acc)
    t.written []
  |> List.sort compare

let segments t = t.segments

(* A straight-line trace is one thread's one segment. *)
let of_trace trace =
  let t = create () in
  List.iter
    (function Read v -> read t ~tid:0 v | Write v -> write t ~tid:0 v)
    trace;
  t

let classify trace var = verdict (of_trace trace) var
let idempotent trace = war (of_trace trace) = []

(* Variables of the trace that the section 3.3.2 rule says need InCLL. *)
let needs_logging trace = war (of_trace trace)

(* The two sequences of paper Table 2. *)
let table2_raw = [ Write "x"; Read "x"; Write "y" ]
let table2_war = [ Read "x"; Write "y"; Write "x" ]

let pp_classification ppf = function
  | No_dependency -> Fmt.string ppf "no dependency"
  | Raw -> Fmt.string ppf "RAW (idempotent)"
  | War -> Fmt.string ppf "WAR (needs logging)"
