type span = { name : string; t0 : float; t1 : float }

type agg = {
  a_name : string;
  mutable n : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

type t = {
  mutable spans : span list; (* newest first *)
  mutable kept : int;
  keep : int; (* cap on raw spans retained *)
  aggs : (string, agg) Hashtbl.t;
  mutable agg_order : agg list; (* newest first *)
}

let create ?(keep = 512) () =
  { spans = []; kept = 0; keep; aggs = Hashtbl.create 8; agg_order = [] }

let emit t ~name ~t0 ~t1 =
  let dur = t1 -. t0 in
  (if t.kept < t.keep then begin
     t.spans <- { name; t0; t1 } :: t.spans;
     t.kept <- t.kept + 1
   end);
  let a =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> a
    | None ->
        let a =
          { a_name = name; n = 0; total = 0.0; min = infinity; max = neg_infinity }
        in
        Hashtbl.add t.aggs name a;
        t.agg_order <- a :: t.agg_order;
        a
  in
  a.n <- a.n + 1;
  a.total <- a.total +. dur;
  if dur < a.min then a.min <- dur;
  if dur > a.max then a.max <- dur

type summary = {
  s_name : string;
  count : int;
  total_ns : float;
  mean_ns : float;
  min_ns : float;
  max_ns : float;
}

let breakdown t =
  List.rev_map
    (fun a ->
      {
        s_name = a.a_name;
        count = a.n;
        total_ns = a.total;
        mean_ns = (if a.n = 0 then 0.0 else a.total /. float_of_int a.n);
        min_ns = (if a.n = 0 then 0.0 else a.min);
        max_ns = (if a.n = 0 then 0.0 else a.max);
      })
    t.agg_order

let count t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.n | None -> 0

let total_ns t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.total | None -> 0.0

let spans t = t.spans

let reset t =
  t.spans <- [];
  t.kept <- 0;
  Hashtbl.reset t.aggs;
  t.agg_order <- []

let to_json t =
  let summary =
    List.map
      (fun s ->
        ( s.s_name,
          Json.Obj
            [
              ("count", Json.Int s.count);
              ("total_ns", Json.Float s.total_ns);
              ("mean_ns", Json.Float s.mean_ns);
              ("min_ns", Json.Float s.min_ns);
              ("max_ns", Json.Float s.max_ns);
            ] ))
      (breakdown t)
  in
  let raw =
    List.rev_map
      (fun sp ->
        Json.Obj
          [
            ("name", Json.String sp.name);
            ("t0_ns", Json.Float sp.t0);
            ("t1_ns", Json.Float sp.t1);
          ])
      t.spans
  in
  Json.Obj [ ("summary", Json.Obj summary); ("spans", Json.List raw) ]
