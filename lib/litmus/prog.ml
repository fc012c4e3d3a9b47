type loc = string
type reg = string

type op =
  | St of loc * int
  | Ld of loc * reg
  | Pwb of loc
  | Psync
  | Faa of loc * int
  | Crash

type t = {
  name : string;
  layout : (loc * int * int) list;
  threads : op list list;
}

let locs p = List.map (fun (l, _, _) -> l) p.layout

let line_of p l =
  let rec go = function
    | [] -> invalid_arg (Fmt.str "Litmus.Prog.line_of: undeclared %s" l)
    | (l', line, _) :: _ when String.equal l l' -> line
    | _ :: rest -> go rest
  in
  go p.layout

let offset_of p l =
  let rec go = function
    | [] -> invalid_arg (Fmt.str "Litmus.Prog.offset_of: undeclared %s" l)
    | (l', _, off) :: _ when String.equal l l' -> off
    | _ :: rest -> go rest
  in
  go p.layout

let lines p =
  List.sort_uniq compare (List.map (fun (_, line, _) -> line) p.layout)

let op_loc = function
  | St (l, _) | Ld (l, _) | Pwb l | Faa (l, _) -> Some l
  | Psync | Crash -> None

let has_crash p =
  List.exists (List.exists (fun o -> o = Crash)) p.threads

let regs p =
  List.sort_uniq compare
    (List.concat_map
       (List.filter_map (function Ld (_, r) -> Some r | _ -> None))
       p.threads)

let check ?(line_words = 8) (p : t) : string list =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
  if p.layout = [] then err "empty layout";
  if p.threads = [] then err "no threads";
  let seen = Hashtbl.create 8 and slots = Hashtbl.create 8 in
  let reserved name = String.starts_with ~prefix:"__" name in
  List.iter
    (fun (l, line, off) ->
      if reserved l then
        err "location %s: names beginning with __ are reserved" l;
      if Hashtbl.mem seen l then err "duplicate location %s" l;
      Hashtbl.replace seen l ();
      if line < 0 then err "location %s: negative line %d" l line;
      if off < 0 || off >= line_words then
        err "location %s: offset %d outside line of %d words" l off line_words;
      if Hashtbl.mem slots (line, off) then
        err "location %s: slot %d.%d already taken" l line off;
      Hashtbl.replace slots (line, off) ())
    p.layout;
  let names = Hashtbl.create 8 in
  List.iter (fun (l, _, _) -> Hashtbl.replace names l ()) p.layout;
  List.iteri
    (fun t ops ->
      List.iter
        (fun o ->
          (match op_loc o with
          | Some l when not (Hashtbl.mem names l) ->
              err "thread %d: undeclared location %s" t l
          | _ -> ());
          match o with
          | Ld (_, r) when Hashtbl.mem names r || reserved r ->
              err "thread %d: register %s names a location or is reserved" t r
          | _ -> ())
        ops)
    p.threads;
  List.rev !errs

let well_formed ?line_words p = check ?line_words p = []

(* --- printing ------------------------------------------------------- *)

let pp_op ppf = function
  | St (l, v) -> Fmt.pf ppf "st %s %d" l v
  | Ld (l, r) -> Fmt.pf ppf "ld %s %s" l r
  | Pwb l -> Fmt.pf ppf "pwb %s" l
  | Psync -> Fmt.string ppf "psync"
  | Faa (l, k) -> Fmt.pf ppf "faa %s %d" l k
  | Crash -> Fmt.string ppf "crash"

let pp ppf p =
  Fmt.pf ppf "@[<v>litmus %s" p.name;
  List.iter (fun (l, line, off) -> Fmt.pf ppf "@,loc %s %d %d" l line off)
    p.layout;
  List.iteri
    (fun i ops ->
      Fmt.pf ppf "@,thread t%d" i;
      List.iter (fun o -> Fmt.pf ppf "@,  %a" pp_op o) ops)
    p.threads;
  Fmt.pf ppf "@]"

let to_string p = Fmt.str "%a@." pp p

(* --- parsing (the replay format) ------------------------------------ *)

let of_string (s : string) : (t, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let tokens_of line =
    String.split_on_char ' ' line
    |> List.filter (fun t -> t <> "")
  in
  let parse_int w k =
    match int_of_string_opt w with
    | Some n -> k n
    | None -> fail "not an integer: %s" w
  in
  let rec go lineno name layout threads cur = function
    | [] ->
        let threads =
          match cur with
          | None -> List.rev threads
          | Some ops -> List.rev (List.rev ops :: threads)
        in
        let p = { name; layout = List.rev layout; threads } in
        (match check p with
        | [] -> Ok p
        | e :: _ -> fail "ill-formed program: %s" e)
    | raw :: rest -> (
        let lineno = lineno + 1 in
        match tokens_of raw with
        | [] | "#" :: _ -> go lineno name layout threads cur rest
        | [ "litmus"; n ] -> go lineno n layout threads cur rest
        | [ "loc"; l; line; off ] ->
            parse_int line (fun line ->
                parse_int off (fun off ->
                    go lineno name ((l, line, off) :: layout) threads cur rest))
        | "thread" :: _ ->
            let threads =
              match cur with
              | None -> threads
              | Some ops -> List.rev ops :: threads
            in
            go lineno name layout threads (Some []) rest
        | toks -> (
            let push op =
              match cur with
              | None -> fail "line %d: op before any 'thread'" lineno
              | Some ops ->
                  go lineno name layout threads (Some (op :: ops)) rest
            in
            match toks with
            | [ "st"; l; v ] -> parse_int v (fun v -> push (St (l, v)))
            | [ "ld"; l; r ] -> push (Ld (l, r))
            | [ "pwb"; l ] -> push (Pwb l)
            | [ "psync" ] -> push Psync
            | [ "faa"; l; k ] -> parse_int k (fun k -> push (Faa (l, k)))
            | [ "crash" ] -> push Crash
            | w :: _ -> fail "line %d: unknown op %s" lineno w
            | [] -> assert false))
  in
  go 0 "anon" [] [] None (String.split_on_char '\n' s)
