(* Idempotence analysis of straight-line access sequences (paper Table 2
   and section 3.3.2, after De Kruijf et al., PLDI'12).

   A program sub-part re-executed from a restart point computes the same
   result iff no variable's first access sequence is a write-after-read
   (WAR): re-execution would read the value a previous execution already
   overwrote. The paper derives from this the rule for which persistent
   variables need InCLL logging; this module implements that rule over an
   explicit access trace — the automation direction the paper's section 6
   sketches as future work. *)

type access = Read of string | Write of string

type classification =
  | No_dependency  (** never both read and written *)
  | Raw  (** first write precedes first read: idempotent *)
  | War  (** read before the first write: requires logging *)

let classify trace var =
  (* The verdict is decided by the first write: a preceding read makes the
     sequence WAR, otherwise RAW; with no write there is no dependency. *)
  let rec scan seen_read = function
    | [] -> No_dependency
    | Read v :: rest when v = var -> scan true rest
    | Write v :: _ when v = var -> if seen_read then War else Raw
    | _ :: rest -> scan seen_read rest
  in
  scan false trace

let idempotent trace =
  let vars =
    List.sort_uniq compare
      (List.map (function Read v | Write v -> v) trace)
  in
  List.for_all (fun v -> classify trace v <> War) vars

(* Variables of the trace that the section 3.3.2 rule says need InCLL. *)
let needs_logging trace =
  let vars =
    List.sort_uniq compare
      (List.map (function Read v | Write v -> v) trace)
  in
  List.filter (fun v -> classify trace v = War) vars

(* The two sequences of paper Table 2. *)
let table2_raw = [ Write "x"; Read "x"; Write "y" ]
let table2_war = [ Read "x"; Write "y"; Write "x" ]

let pp_classification ppf = function
  | No_dependency -> Fmt.string ppf "no dependency"
  | Raw -> Fmt.string ppf "RAW (idempotent)"
  | War -> Fmt.string ppf "WAR (needs logging)"
