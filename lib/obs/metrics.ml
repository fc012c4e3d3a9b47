type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  bounds : float array; (* ascending upper bounds; +inf bucket is implicit *)
  buckets : int array; (* length = Array.length bounds + 1 *)
  mutable n : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

type entry = Counter of counter | Histogram of histogram

type t = {
  by_name : (string, entry) Hashtbl.t;
  mutable order : entry list; (* newest first; reversed on export *)
}

let create () = { by_name = Hashtbl.create 32; order = [] }

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg (Printf.sprintf "Metrics.counter: %S is a histogram" name)
  | None ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.add t.by_name name (Counter c);
      t.order <- Counter c :: t.order;
      c

let default_bounds =
  [| 1e2; 3e2; 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8 |]

let histogram ?(bounds = default_bounds) t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %S is a counter" name)
  | None ->
      let h =
        {
          h_name = name;
          bounds;
          buckets = Array.make (Array.length bounds + 1) 0;
          n = 0;
          sum = 0.0;
          min = infinity;
          max = neg_infinity;
        }
      in
      Hashtbl.add t.by_name name (Histogram h);
      t.order <- Histogram h :: t.order;
      h

let[@inline] incr c = c.count <- c.count + 1
let[@inline] add c k = c.count <- c.count + k
let value c = c.count

let observe h x =
  let rec bucket i =
    if i >= Array.length h.bounds then i
    else if x <= h.bounds.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. x;
  if x < h.min then h.min <- x;
  if x > h.max then h.max <- x

let count h = h.n
let sum h = h.sum
let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

let reset t =
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Counter c -> c.count <- 0
      | Histogram h ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.n <- 0;
          h.sum <- 0.0;
          h.min <- infinity;
          h.max <- neg_infinity)
    t.by_name

let histogram_json h =
  let bucket_fields =
    List.concat
      [
        Array.to_list
          (Array.mapi
             (fun i b -> (Printf.sprintf "le_%g" h.bounds.(i), Json.Int b))
             (Array.sub h.buckets 0 (Array.length h.bounds)));
        [ ("le_inf", Json.Int h.buckets.(Array.length h.bounds)) ];
      ]
  in
  Json.Obj
    [
      ("type", Json.String "histogram");
      ("count", Json.Int h.n);
      ("sum", Json.Float h.sum);
      ("mean", Json.Float (mean h));
      ("min", Json.Float (if h.n = 0 then 0.0 else h.min));
      ("max", Json.Float (if h.n = 0 then 0.0 else h.max));
      ("buckets", Json.Obj bucket_fields);
    ]

let to_json t =
  Json.Obj
    (List.rev_map
       (fun e ->
         match e with
         | Counter c -> (c.c_name, Json.Int c.count)
         | Histogram h -> (h.h_name, histogram_json h))
       t.order)
