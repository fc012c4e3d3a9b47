(* Job lists: independent jobs, run one after another, then a closing
   step over their results in job order (DESIGN.md section 17). *)

type result = {
  ok : bool;
  text : string;
  json : Json.t;
  count : int;
  counterexample : string option;
}

type ('a, 'b) t = { jobs : (unit -> 'a) array; close : 'a array -> 'b }
type campaign = (result, result) t

let result ?(json = Json.Null) ?(count = 0) ?counterexample ~ok text =
  { ok; text; json; count; counterexample }

let run t = t.close (Array.map (fun job -> job ()) t.jobs)

let grid rows cols job close =
  let n = List.length cols in
  {
    jobs =
      Array.of_list
        (List.concat_map (fun r -> List.map (fun c () -> job r c) cols) rows);
    close =
      (fun rs ->
        close
          (List.mapi
             (fun i r -> (r, Array.to_list (Array.sub rs (i * n) n)))
             rows));
  }

let concat rs =
  let rs = Array.to_list rs in
  {
    ok = List.for_all (fun r -> r.ok) rs;
    text = String.concat "" (List.map (fun r -> r.text) rs);
    json =
      Json.List
        (List.concat_map
           (fun r ->
             match r.json with Json.Null -> [] | Json.List l -> l | j -> [ j ])
           rs);
    count = List.fold_left (fun n r -> n + r.count) 0 rs;
    counterexample =
      List.fold_left
        (fun c r -> if r.counterexample = None then c else r.counterexample)
        None rs;
  }

let append a b =
  let n = Array.length a.jobs in
  {
    jobs = Array.append a.jobs b.jobs;
    close =
      (fun rs ->
        let ra = a.close (Array.sub rs 0 n)
        and rb = b.close (Array.sub rs n (Array.length rs - n)) in
        let fields = function Json.Obj fs -> fs | _ -> [] in
        {
          (concat [| ra; rb |]) with
          json = Json.Obj (fields ra.json @ fields rb.json);
        });
  }
