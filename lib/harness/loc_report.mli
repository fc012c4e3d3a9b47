(* Table 3 analogue: how much of each ported program is ResPCT
   instrumentation. The paper counts lines added or modified in the C
   sources; we count the lines of our OCaml ports that mention the ResPCT
   API (restart points, InCLL updates, tracking, allow/prevent, runtime
   plumbing) against the module's total lines. *)

(* Rows of (application, instrumented lines, total lines, percentage);
   files are resolved relative to [root] (the repository checkout). *)
val rows : ?root:string -> unit -> (string * string list) list
