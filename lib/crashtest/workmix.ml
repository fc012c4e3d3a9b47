(* Deterministic operation mixes shared by the crash explorer and the
   property tests (test/common/gen_common.ml wraps these for QCheck).

   Values are unique per index and never 0 (0 is the simulator's
   freshly-zeroed word), so a stale or torn value is always
   distinguishable from a legitimate one. *)

type map_op =
  | Insert of int * int
  | Remove of int
  | Search of int

type queue_op =
  | Enqueue of int
  | Dequeue

let map_ops ?(key_range = 13) ~seed ~n () =
  let rng = Simnvm.Rng.create seed in
  List.init n (fun i ->
      let key = 1 + Simnvm.Rng.int rng key_range in
      match Simnvm.Rng.int rng 8 with
      | 0 | 1 -> Remove key
      | 2 -> Search key
      | _ -> Insert (key, 100 + i))

(* Allocator-churn mix: fill a small key set, then round-robin
   remove(k); insert(k, fresh) pairs. Every epoch frees map nodes and the
   very next operation re-allocates one, so an allocator that recycles a
   block before the freeing epoch has sealed is exercised on almost every
   checkpoint overlap window (free lists are LIFO per size class, so the
   newest free is popped first). *)
let churn_ops ?(keys = 8) ~n () =
  List.init n (fun i ->
      if i < keys then Insert (1 + i, 100 + i)
      else
        let j = i - keys in
        let key = 1 + (j / 2 mod keys) in
        if j mod 2 = 0 then Remove key else Insert (key, 100 + i))

let queue_ops ~seed ~n () =
  let rng = Simnvm.Rng.create seed in
  List.init n (fun i ->
      if Simnvm.Rng.int rng 3 = 0 then Dequeue else Enqueue (100 + i))

(* The reference models: the logical state a correct structure holds,
   stepped one operation at a time. The prefix states below fold them;
   the ResPCT crash scenarios step one live beside the worker and
   snapshot it at every checkpoint. *)

type ('op, 'state) model = { apply : 'op -> unit; state : unit -> 'state }

let map_model () =
  let t = Hashtbl.create 16 in
  {
    apply =
      (function
      | Insert (k, v) -> Hashtbl.replace t k v
      | Remove k -> Hashtbl.remove t k
      | Search _ -> ());
    state =
      (fun () ->
        List.sort Pds.Hashmap_respct.compare_binding
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []));
  }

let queue_model () =
  let q = ref [] in
  {
    apply =
      (function
      | Enqueue v -> q := !q @ [ v ]
      | Dequeue -> ( match !q with [] -> () | _ :: tl -> q := tl));
    state = (fun () -> !q);
  }

(* [states.(i)] is the logical state once the first [i] operations have
   completed. *)
let states model ops =
  let m = model () in
  let states = Array.make (List.length ops + 1) (m.state ()) in
  List.iteri
    (fun i op ->
      m.apply op;
      states.(i + 1) <- m.state ())
    ops;
  states

let map_states ops = states map_model ops
let queue_states ops = states queue_model ops

let pp_map_op ppf = function
  | Insert (k, v) -> Fmt.pf ppf "insert(%d,%d)" k v
  | Remove k -> Fmt.pf ppf "remove(%d)" k
  | Search k -> Fmt.pf ppf "search(%d)" k

let pp_queue_op ppf = function
  | Enqueue v -> Fmt.pf ppf "enqueue(%d)" v
  | Dequeue -> Fmt.pf ppf "dequeue"

let pp_bindings ppf bs =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (k, v) -> Fmt.pf ppf "%d->%d" k v))
    bs

let pp_contents ppf vs = Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.comma Fmt.int) vs
