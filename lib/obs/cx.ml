type fields = (string * string) list
type 'p verdict = Pass | Fail of 'p * string

type 'p campaign = {
  tag : string;
  print : 'p -> string list * fields;
  decode : string list -> fields -> ('p, string) result;
  check : 'p -> 'p verdict;
  candidates : 'p -> 'p list;
  attempts : int;
}

type error =
  | Unreadable of string
  | No_tag_line
  | Unknown_tag of string
  | Bad_field of string
  | Harness_failed of string

let pp_error ppf = function
  | Unreadable m -> Fmt.pf ppf "unreadable: %s" m
  | No_tag_line -> Fmt.string ppf "no '# <tag> k=v ...' line"
  | Unknown_tag t -> Fmt.pf ppf "unknown counterexample tag %S" t
  | Bad_field m -> Fmt.pf ppf "bad counterexample: %s" m
  | Harness_failed m -> Fmt.pf ppf "harness failed: %s" m

(* --- text --------------------------------------------------------------- *)

let fields_to_string fs =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fs)

let to_string c w =
  let body, fs = c.print w in
  String.concat "" (List.map (fun l -> l ^ "\n") body)
  ^ "# " ^ c.tag
  ^ (if fs = [] then "" else " " ^ fields_to_string fs)
  ^ "\n"

let parse text =
  let rec drop_blank = function
    | l :: rest when String.trim l = "" -> drop_blank rest
    | ls -> ls
  in
  let field tok =
    match String.index_opt tok '=' with
    | Some i when i > 0 ->
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        Ok (String.sub tok 0 i, v)
    | _ -> Error (Bad_field ("not a key=value token: " ^ tok))
  in
  match drop_blank (List.rev (String.split_on_char '\n' text)) with
  | [] -> Error No_tag_line
  | last :: rev_body -> (
      let tokens = String.split_on_char ' ' (String.trim last) in
      match List.filter (( <> ) "") tokens with
      | "#" :: tag :: toks ->
          List.fold_left
            (fun acc tok ->
              Result.bind acc (fun fs ->
                  Result.bind (field tok) (fun (k, v) ->
                      if List.mem_assoc k fs then
                        Error (Bad_field ("repeated key " ^ k))
                      else Ok ((k, v) :: fs))))
            (Ok []) toks
          |> Result.map (fun fs -> (tag, List.rev rev_body, List.rev fs))
      | _ -> Error No_tag_line)

let of_string c text =
  match parse text with
  | Error e -> Error e
  | Ok (tag, _, _) when tag <> c.tag -> Error (Unknown_tag tag)
  | Ok (_, body, fs) ->
      Result.map_error (fun m -> Bad_field m) (c.decode body fs)

(* --- field decoders ------------------------------------------------------ *)

let known fs keys =
  match List.find_opt (fun (k, _) -> not (List.mem k keys)) fs with
  | Some (k, _) -> Error ("unknown field " ^ k)
  | None -> Ok ()

let opt fs k conv =
  match List.assoc_opt k fs with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "bad field %s=%s" k v))

let req fs k conv =
  Result.bind (opt fs k conv) (function
    | Some x -> Ok x
    | None -> Error ("missing field " ^ k))

let int = int_of_string_opt
let nat v = match int v with Some n when n >= 0 -> Some n | _ -> None
let range lo hi v =
  match int v with Some n when lo <= n && n <= hi -> Some n | _ -> None
let bool = bool_of_string_opt
let bit = function "0" -> Some false | "1" -> Some true | _ -> None

(* --- shrink and replay -------------------------------------------------- *)

(* The first failing run out of [attempts], as (witness, reason). *)
let run c w =
  let rec go k =
    if k = 0 then None
    else match c.check w with Fail (w', r) -> Some (w', r) | Pass -> go (k - 1)
  in
  go c.attempts

(* Greedy first-improvement descent: move to the first candidate that
   still fails; stop when none does or 256 steps are spent (every
   campaign's candidates are strictly smaller, so this only bounds a
   broken one). A candidate that passed is not run again. *)
let shrink c (w, reason) =
  let passed = Hashtbl.create 16 in
  let try_candidate p =
    if Hashtbl.mem passed p then None
    else
      let found = run c p in
      if found = None then Hashtbl.replace passed p ();
      found
  in
  let rec go fuel (w, r) =
    if fuel = 0 then (w, r)
    else
      match List.find_map try_candidate (c.candidates w) with
      | Some wr -> go (fuel - 1) wr
      | None -> (w, r)
  in
  go 256 (w, reason)

type 'p shrunk = {
  witness : 'p;
  reason : string;
  text : string;
  parity : (unit, string) result;
}

let minimize c first =
  let witness, reason = shrink c first in
  let text = to_string c witness in
  let parity =
    match of_string c text with
    | Error e -> Error (Fmt.str "printed counterexample: %a" pp_error e)
    | Ok w when w <> witness ->
        Error "printed counterexample parses to another witness"
    | Ok w when run c w = None ->
        Error "replay of the printed counterexample did not reproduce"
    | Ok _ -> Ok ()
  in
  { witness; reason; text; parity }

let pp_parity ppf = function
  | Ok () -> ()
  | Error m -> Fmt.pf ppf "REPLAY DID NOT REPRODUCE (%s)@." m

type packed = Campaign : 'p campaign -> packed
type replayed = Reproduced of string | Vanished of int

let replay campaigns text =
  match parse text with
  | Error e -> Error e
  | Ok (tag, body, fs) -> (
      match List.find_opt (fun (Campaign c) -> c.tag = tag) campaigns with
      | None -> Error (Unknown_tag tag)
      | Some (Campaign c) -> (
          match Result.map_error (fun m -> Bad_field m) (c.decode body fs) with
          | Error e -> Error e
          | Ok w -> (
              match run c w with
              | Some (_, reason) -> Ok (tag, Reproduced reason)
              | None -> Ok (tag, Vanished c.attempts)
              | exception e -> Error (Harness_failed (Printexc.to_string e)))))
