type var = string

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | And | Or

type expr = Int of int | Var of var | Binop of binop * expr * expr

type stmt =
  | Assign of var * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Acquire of int
  | Release of int
  | Rp of int
  | Pwb of var
  | Psync
  | Skip

type thread = { tname : string; body : stmt list }

type program = {
  pname : string;
  persistent : (var * int) list;
  transient : (var * int) list;
  threads : thread list;
}

let rec expr_reads = function
  | Int _ -> []
  | Var v -> [ v ]
  | Binop (_, a, b) -> expr_reads a @ expr_reads b

let stmt_writes s =
  let rec go acc = function
    | Assign (v, _) -> if List.mem v acc then acc else v :: acc
    | If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | While (_, b) -> List.fold_left go acc b
    | Acquire _ | Release _ | Rp _ | Pwb _ | Psync | Skip -> acc
  in
  List.rev (go [] s)

let declared p = List.map fst p.persistent @ List.map fst p.transient
let is_persistent p v = List.mem_assoc v p.persistent
let is_declared p v = List.mem v (declared p)

let rec stmt_rps = function
  | Rp r -> [ r ]
  | If (_, t, e) -> List.concat_map stmt_rps t @ List.concat_map stmt_rps e
  | While (_, b) -> List.concat_map stmt_rps b
  | Assign _ | Acquire _ | Release _ | Pwb _ | Psync | Skip -> []

let rp_ids p =
  List.concat_map (fun t -> List.concat_map stmt_rps t.body) p.threads

let max_rp_id p = List.fold_left max (-1) (rp_ids p)

(* ------------------------------------------------------------------ *)
(* Well-formedness *)

let dups l =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
        if List.mem x seen then x :: go seen rest else go (x :: seen) rest
  in
  List.sort_uniq compare (go [] l)

let check p =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
  List.iter
    (fun v -> err "duplicate variable declaration: %s" v)
    (dups (declared p));
  List.iter
    (fun r -> err "duplicate restart-point id: %d" r)
    (dups (rp_ids p));
  List.iter
    (fun n -> err "duplicate thread name: %s" n)
    (dups (List.map (fun t -> t.tname) p.threads));
  let check_var t v =
    if not (is_declared p v) then
      err "thread %s: undeclared variable %s" t.tname v
  in
  let check_expr t e = List.iter (check_var t) (expr_reads e) in
  let rec check_stmt t = function
    | Assign (v, e) ->
        check_var t v;
        check_expr t e
    | If (c, a, b) ->
        check_expr t c;
        List.iter (check_stmt t) a;
        List.iter (check_stmt t) b
    | While (c, b) ->
        check_expr t c;
        List.iter (check_stmt t) b
    | Acquire l | Release l ->
        if l < 0 then err "thread %s: negative lock id %d" t.tname l
    | Rp r -> if r < 0 then err "thread %s: negative restart-point id %d" t.tname r
    | Pwb v ->
        check_var t v;
        if is_declared p v && not (is_persistent p v) then
          err "thread %s: pwb of transient variable %s" t.tname v
    | Psync | Skip -> ()
  in
  List.iter (fun t -> List.iter (check_stmt t) t.body) p.threads;
  List.rev !errs

let well_formed p = check p = []

(* ------------------------------------------------------------------ *)
(* CFG construction *)

type node_kind =
  | Entry
  | Exit
  | Node_assign of var * expr
  | Node_branch of expr
  | Node_acquire of int
  | Node_release of int
  | Node_rp of int
  | Node_pwb of var
  | Node_psync

type node = {
  id : int;
  kind : node_kind;
  path : string;
  mutable succ : int list;
  mutable pred : int list;
}

type cfg = {
  owner : string;
  nodes : node array;
  entry : int;
  exit_node : int;
}

(* A pwb reads no value and writes none: it orders the write-back of the
   variable's cache line, which is invisible to the volatile dataflow the
   WAR/lockset analyses reason about. *)
let node_reads = function
  | Node_assign (_, e) | Node_branch e -> expr_reads e
  | Entry | Exit | Node_acquire _ | Node_release _ | Node_rp _ | Node_pwb _
  | Node_psync ->
      []

let node_write = function
  | Node_assign (v, _) -> Some v
  | Entry | Exit | Node_branch _ | Node_acquire _ | Node_release _
  | Node_rp _ | Node_pwb _ | Node_psync ->
      None

let cfg_of_thread t =
  let rev_nodes = ref [] in
  let count = ref 0 in
  let add kind path =
    let id = !count in
    incr count;
    rev_nodes := { id; kind; path; succ = []; pred = [] } :: !rev_nodes;
    id
  in
  let edges = ref [] in
  let connect preds n =
    List.iter (fun p -> if not (List.mem (p, n) !edges) then edges := (p, n) :: !edges) preds
  in
  (* [lower] threads the set of dangling predecessors through the
     statement list; a statement's lowering returns the frontier that
     falls through to whatever comes next. *)
  let rec seq preds path stmts =
    snd
      (List.fold_left
         (fun (i, preds) s ->
           (i + 1, lower preds (Fmt.str "%s[%d]" path i) s))
         (0, preds) stmts)
  and lower preds path = function
    | Skip -> preds
    | Assign (v, e) ->
        let n = add (Node_assign (v, e)) path in
        connect preds n;
        [ n ]
    | Acquire l ->
        let n = add (Node_acquire l) path in
        connect preds n;
        [ n ]
    | Release l ->
        let n = add (Node_release l) path in
        connect preds n;
        [ n ]
    | Rp r ->
        let n = add (Node_rp r) path in
        connect preds n;
        [ n ]
    | Pwb v ->
        let n = add (Node_pwb v) path in
        connect preds n;
        [ n ]
    | Psync ->
        let n = add Node_psync path in
        connect preds n;
        [ n ]
    | If (c, a, b) ->
        let br = add (Node_branch c) path in
        connect preds br;
        let t_out = seq [ br ] (path ^ ".then") a in
        let e_out = seq [ br ] (path ^ ".else") b in
        t_out @ e_out
    | While (c, body) ->
        let br = add (Node_branch c) path in
        connect preds br;
        let body_out = seq [ br ] (path ^ ".body") body in
        connect body_out br;
        [ br ]
  in
  let entry = add Entry "entry" in
  let out = seq [ entry ] t.tname t.body in
  let exit_node = add Exit "exit" in
  connect out exit_node;
  let nodes = Array.make !count { id = 0; kind = Entry; path = ""; succ = []; pred = [] } in
  List.iter (fun n -> nodes.(n.id) <- n) !rev_nodes;
  List.iter
    (fun (a, b) ->
      nodes.(a).succ <- nodes.(a).succ @ [ b ];
      nodes.(b).pred <- nodes.(b).pred @ [ a ])
    (List.rev !edges);
  { owner = t.tname; nodes; entry; exit_node }

(* ------------------------------------------------------------------ *)
(* Printers *)

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr ppf = function
  | Int n -> Fmt.int ppf n
  | Var v -> Fmt.string ppf v
  | Binop (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b

let rec pp_stmt ppf = function
  | Assign (v, e) -> Fmt.pf ppf "%s = %a" v pp_expr e
  | If (c, a, b) ->
      Fmt.pf ppf "@[<v 2>if %a {@,%a@]@,@[<v 2>} else {@,%a@]@,}" pp_expr c
        pp_body a pp_body b
  | While (c, b) ->
      Fmt.pf ppf "@[<v 2>while %a {@,%a@]@,}" pp_expr c pp_body b
  | Acquire l -> Fmt.pf ppf "acquire L%d" l
  | Release l -> Fmt.pf ppf "release L%d" l
  | Rp r -> Fmt.pf ppf "rp %d" r
  | Pwb v -> Fmt.pf ppf "pwb %s" v
  | Psync -> Fmt.string ppf "psync"
  | Skip -> Fmt.string ppf "skip"

and pp_body ppf body = Fmt.(list ~sep:cut pp_stmt) ppf body

let pp_decl kind ppf (v, init) = Fmt.pf ppf "%s %s = %d" kind v init

let pp_program ppf p =
  Fmt.pf ppf "@[<v>program %s@," p.pname;
  List.iter (fun d -> Fmt.pf ppf "%a@," (pp_decl "persistent") d) p.persistent;
  List.iter (fun d -> Fmt.pf ppf "%a@," (pp_decl "transient") d) p.transient;
  List.iter
    (fun t -> Fmt.pf ppf "@[<v 2>thread %s {@,%a@]@,}@," t.tname pp_body t.body)
    p.threads;
  Fmt.pf ppf "@]"

let program_to_string p = Fmt.str "%a" pp_program p
