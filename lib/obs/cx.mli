(* Counterexamples: the one shrinker, text format and replay entry every
   crash campaign shares (DESIGN.md §17). Checking a witness replays it;
   a searching campaign leaves the searched part of a candidate unset and
   [check] fills it in. Text: optional body lines, then one tag line
   [# <tag> k=v ...], whose values run to the next space. [parse] is
   total: any input yields a typed error, never an exception. *)

type fields = (string * string) list
type 'p verdict = Pass | Fail of 'p * string  (** witness, reason *)

type 'p campaign = {
  tag : string;
  print : 'p -> string list * fields;  (** body lines, tag-line fields *)
  decode : string list -> fields -> ('p, string) result;
  check : 'p -> 'p verdict;
  candidates : 'p -> 'p list;  (** smaller witnesses, best first *)
  attempts : int;
      (** runs per candidate and per replay; >1 only for real-time kills *)
}

type error =
  | Unreadable of string
  | No_tag_line
  | Unknown_tag of string
  | Bad_field of string
  | Harness_failed of string

val pp_error : error Fmt.t

(* {1 Text} *)

(* [k=v] tokens joined by single spaces. *)
val fields_to_string : fields -> string

(* The counterexample text of a witness: body lines, then the tag line. *)
val to_string : 'p campaign -> 'p -> string

(* (tag, body lines, fields) of a counterexample text. *)
val parse : string -> (string * string list * fields, error) result

(* Parse and decode a text for one campaign; another tag is
   [Unknown_tag]. *)
val of_string : 'p campaign -> string -> ('p, error) result

(* Field decoders for campaigns' [decode]. *)
(* [known fs keys]: every field of [fs] is one of [keys]. *)
val known : fields -> string list -> (unit, string) result

(* [opt fs k conv] converts field [k] when present; [req] requires it. *)
val opt : fields -> string -> (string -> 'a option) -> ('a option, string) result
val req : fields -> string -> (string -> 'a option) -> ('a, string) result

(* Converters: [nat] is a non-negative int, [range lo hi] an int in
   [lo, hi], [bit] is ["0"] or ["1"]. *)
val int : string -> int option
val nat : string -> int option
val range : int -> int -> string -> int option
val bool : string -> bool option
val bit : string -> bool option

(* {1 Shrink and replay} *)

type 'p shrunk = {
  witness : 'p;
  reason : string;
  text : string;  (** the printed counterexample *)
  parity : (unit, string) result;
      (** the text parses back to [witness] and re-running it fails *)
}

(* [minimize c (w, reason)] shrinks a failing witness with [c]'s
   candidates (greedy first-improvement descent, at most 256 steps) and
   prints it; [parity] checks that the text replays. *)
val minimize : 'p campaign -> 'p * string -> 'p shrunk

(* Nothing when the printed text replayed, else its
   [REPLAY DID NOT REPRODUCE (...)] line. *)
val pp_parity : (unit, string) result Fmt.t

type packed = Campaign : 'p campaign -> packed
type replayed = Reproduced of string | Vanished of int  (** attempts made *)

(* [replay campaigns text] decodes [text] with the campaign its tag names
   and runs it up to [attempts] times. An exception from the run is
   [Harness_failed]. *)
val replay : packed list -> string -> (string * replayed, error) result
