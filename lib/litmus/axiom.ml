type variant = Pcso | Pcso_lazy | Eadr | Ablation

let variant_name = function
  | Pcso -> "pcso"
  | Pcso_lazy -> "pcso-lazy"
  | Eadr -> "eadr"
  | Ablation -> "ablation"

let variant_of_string = function
  | "pcso" -> Some Pcso
  | "pcso-lazy" -> Some Pcso_lazy
  | "eadr" -> Some Eadr
  | "ablation" -> Some Ablation
  | _ -> None

module Outcomes = Set.Make (struct
  type t = int list

  let compare = compare
end)

type result = { outcomes : Outcomes.t; complete : bool; states : int }

(* A symbolic machine state. [mem] is the coherent (SC) view, [pmem]
   the persistent image; a word is dirty iff the two disagree — value
   equality is outcome-equivalent to operational dirtiness, because
   writing back a value-clean word never changes the image. [pending]
   (Pcso_lazy only) is the sorted set of lines with an issued but not
   yet applied pwb.

   [enumerate] is the DFS core shared by [allowed] (the outcome sets
   the worlds are checked against) and [Axcheck] (which needs the full
   (mem, pmem) pair at each terminal state to judge the static
   analyzer's must-durable claims). [record] fires at every terminal
   state — explicit [Crash] executed, or all threads done — including
   the extra terminals reached by post-crash spontaneous write-backs;
   the arrays are the DFS working state, so callers must copy what they
   retain. Under [Eadr] the observable image is [mem] (the crash drains
   the cache), and [record] still receives the raw pair. *)
let enumerate ?(max_states = 300_000) ~variant
    ~(record : int array -> int array -> unit) (p : Prog.t) : bool * int =
  let loc_list = Prog.locs p in
  let n = List.length loc_list in
  let idx = Hashtbl.create 8 in
  List.iteri (fun i l -> Hashtbl.replace idx l i) loc_list;
  let ix l = Hashtbl.find idx l in
  let line = Array.of_list (List.map (fun l -> Prog.line_of p l) loc_list) in
  let line_ids = Prog.lines p in
  let members lid =
    List.filter (fun i -> line.(i) = lid) (List.init n (fun i -> i))
  in
  let members_tbl = Hashtbl.create 4 in
  List.iter (fun lid -> Hashtbl.replace members_tbl lid (members lid)) line_ids;
  let members lid = Hashtbl.find members_tbl lid in
  let bodies = Array.of_list (List.map Array.of_list p.Prog.threads) in
  let nt = Array.length bodies in
  let visited = Hashtbl.create 4096 in
  let states = ref 0 in
  let capped = ref false in
  let flush_line pmem mem lid =
    let pmem' = Array.copy pmem in
    List.iter (fun i -> pmem'.(i) <- mem.(i)) (members lid);
    pmem'
  in
  let dirty_members mem pmem lid =
    List.filter (fun i -> mem.(i) <> pmem.(i)) (members lid)
  in
  let rec go mem pmem pcs halted pending =
    if not !capped then begin
      let key =
        ( Array.to_list mem,
          Array.to_list pmem,
          Array.to_list pcs,
          halted,
          pending )
      in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.replace visited key ();
        incr states;
        if !states > max_states then capped := true
        else begin
          let all_done =
            let ok = ref true in
            Array.iteri
              (fun t pc -> if pc < Array.length bodies.(t) then ok := false)
              pcs;
            !ok
          in
          if halted || all_done then record mem pmem;
          (* program steps *)
          if not halted then
            Array.iteri
              (fun t body ->
                let pc = pcs.(t) in
                if pc < Array.length body then begin
                  let pcs' = Array.copy pcs in
                  pcs'.(t) <- pc + 1;
                  match body.(pc) with
                  | Prog.St (l, v) ->
                      let mem' = Array.copy mem in
                      mem'.(ix l) <- v;
                      go mem' pmem pcs' halted pending
                  | Prog.Faa (l, k) ->
                      let mem' = Array.copy mem in
                      mem'.(ix l) <- mem.(ix l) + k;
                      go mem' pmem pcs' halted pending
                  | Prog.Ld _ ->
                      (* registers are unobservable and nothing branches
                         on them: a load only advances the pc *)
                      go mem pmem pcs' halted pending
                  | Prog.Crash -> go mem pmem pcs' true pending
                  | Prog.Psync -> (
                      match variant with
                      | Pcso_lazy ->
                          (* the fence forces every issued pwb to apply,
                             at the current contents of its line *)
                          let pmem' =
                            List.fold_left
                              (fun pm lid -> flush_line pm mem lid)
                              pmem pending
                          in
                          go mem pmem' pcs' halted []
                      | Pcso | Eadr | Ablation ->
                          go mem pmem pcs' halted pending)
                  | Prog.Pwb l -> (
                      let lid = line.(ix l) in
                      match variant with
                      | Pcso | Ablation ->
                          (* eager clwb: the whole line persists now
                             (explicit pwb is line-granular even under
                             the word ablation) *)
                          go mem (flush_line pmem mem lid) pcs' halted
                            pending
                      | Eadr ->
                          (* outcome reads [mem]; write-back invisible *)
                          go mem pmem pcs' halted pending
                      | Pcso_lazy ->
                          (* issue only; applied by a later write-back
                             or psync (the persist-now behaviour is the
                             issue immediately followed by a spontaneous
                             write-back, so it needs no extra branch) *)
                          go mem pmem pcs' halted
                            (List.sort_uniq compare (lid :: pending)))
                end)
              bodies;
          (* spontaneous write-back steps (also from terminal states:
             the adversary may complete in-flight write-backs between
             the last instruction and the power failure) *)
          match variant with
          | Eadr -> () (* crash drains the cache; write-back invisible *)
          | Pcso | Pcso_lazy ->
              List.iter
                (fun lid ->
                  if
                    dirty_members mem pmem lid <> []
                    || List.mem lid pending
                  then
                    go mem (flush_line pmem mem lid) pcs halted
                      (List.filter (fun l -> l <> lid) pending))
                line_ids
          | Ablation ->
              (* word-granular ablation: a spontaneous write-back
                 persists any nonempty subset of the line's dirty
                 words; the rest stay dirty *)
              List.iter
                (fun lid ->
                  let dirty = Array.of_list (dirty_members mem pmem lid) in
                  let k = Array.length dirty in
                  if k > 0 then
                    for mask = 1 to (1 lsl k) - 1 do
                      let pmem' = Array.copy pmem in
                      for b = 0 to k - 1 do
                        if mask land (1 lsl b) <> 0 then
                          pmem'.(dirty.(b)) <- mem.(dirty.(b))
                      done;
                      go mem pmem' pcs halted pending
                    done)
                line_ids
        end
      end
    end
  in
  go (Array.make n 0) (Array.make n 0) (Array.make nt 0) false [];
  (not !capped, !states)

let allowed ?max_states ~variant (p : Prog.t) : result =
  let outcomes = ref Outcomes.empty in
  let record mem pmem =
    outcomes :=
      Outcomes.add
        (Array.to_list (if variant = Eadr then mem else pmem))
        !outcomes
  in
  let complete, states = enumerate ?max_states ~variant ~record p in
  { outcomes = !outcomes; complete; states }

let mem_outcome r o = Outcomes.mem o r.outcomes

let failed_inclusions p =
  let set v = (allowed ~variant:v p).outcomes in
  let pcso = set Pcso in
  List.filter_map
    (fun (a, sa, b, sb) -> if Outcomes.subset sa sb then None else Some (a, b))
    [
      (Eadr, set Eadr, Pcso, pcso);
      (Pcso, pcso, Pcso_lazy, set Pcso_lazy);
      (Pcso, pcso, Ablation, set Ablation);
    ]

(* Non-breaking separators: golden tests and replay files pin these
   strings, so they must never wrap. *)
let pp_outcome locs ppf o =
  Fmt.pf ppf "(%a)"
    Fmt.(list ~sep:(any ",") (fun ppf (l, v) -> pf ppf "%s=%d" l v))
    (List.combine locs o)

let pp_outcomes locs ppf set =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any " ") (pp_outcome locs))
    (Outcomes.elements set)

