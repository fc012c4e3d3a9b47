(* ResPCT-instrumented lock-based hash map.

   Per the paper's rules (section 3.3.2) with restart points placed after
   each operation:

   - bucket heads and node [next] pointers are read and later written within
     an epoch (WAR) -> InCLL variables;
   - node values are updated in place on a duplicate insert -> InCLL;
   - node keys are written exactly once when the node is linked -> plain
     persistent words, tracked with add_modified.

   Node layout (one cache line, line-aligned):
     +0  key               (plain word)
     +1  value InCLL cell  (record, backup, epoch_id)
     +4  next  InCLL cell  (record, backup, epoch_id)
     +7  padding *)

let node_words = 8

type t = {
  rt : Respct.Runtime.t;
  env : Simsched.Env.t;
  buckets : int;
  heads : int; (* base of the packed bucket-head InCLL cell array *)
  locks : Simsched.Mutex.t array;
}

let key_of node = node
let value_cell node = node + 1
let next_cell node = node + 4

let create rt ~slot ~buckets =
  if buckets <= 0 then invalid_arg "Hashmap_respct: buckets must be positive";
  let heads = Respct.Runtime.alloc_incll_array rt ~slot buckets ~init:0 in
  {
    rt;
    env = Respct.Runtime.env rt;
    buckets;
    heads;
    locks = Array.init buckets (fun _ -> Simsched.Mutex.create ~name:"bucket" ());
  }

let bucket t key = (key land max_int) mod t.buckets
let head_cell t b = Respct.Heap.cell_at t.env t.heads b
let sched t = Simsched.Env.sched t.env

let rec find t ~slot node key =
  if node = 0 then 0
  else if Simsched.Env.load t.env (key_of node) = key then node
  else find t ~slot (Respct.Runtime.read t.rt ~slot (next_cell node)) key

(* Critical sections take the bucket lock inline rather than through
   [Mutex.with_lock], whose closure over the operation's arguments would
   cost 7 words per operation. As in [with_lock], a simulated crash
   leaves the lock held (the machine died holding it); any other
   exception releases it. *)
let abort t b e =
  if e <> Simsched.Scheduler.Crashed then
    Simsched.Mutex.unlock (sched t) t.locks.(b);
  raise e

let insert_locked t ~slot ~key ~value b =
  let head = Respct.Runtime.read t.rt ~slot (head_cell t b) in
  match find t ~slot head key with
  | 0 ->
      let node, fresh =
        Respct.Runtime.alloc_raw_block ~align_line:true t.rt ~slot
          ~words:node_words
      in
      (* The key is written once per node lifetime: WAR-free. *)
      Simsched.Env.store t.env (key_of node) key;
      Respct.Runtime.add_modified t.rt ~slot (key_of node);
      Respct.Runtime.init_incll t.rt ~slot ~fresh (value_cell node) value;
      Respct.Runtime.init_incll t.rt ~slot ~fresh (next_cell node) head;
      Respct.Runtime.update t.rt ~slot (head_cell t b) node;
      true
  | node ->
      Respct.Runtime.update t.rt ~slot (value_cell node) value;
      false

let insert t ~slot ~key ~value =
  let b = bucket t key in
  Simsched.Mutex.lock (sched t) t.locks.(b);
  match insert_locked t ~slot ~key ~value b with
  | inserted ->
      Simsched.Mutex.unlock (sched t) t.locks.(b);
      inserted
  | exception e -> abort t b e

let search_locked t ~slot ~key b =
  let head = Respct.Runtime.read t.rt ~slot (head_cell t b) in
  match find t ~slot head key with
  | 0 -> None
  | node -> Some (Respct.Runtime.read t.rt ~slot (value_cell node))

let search t ~slot ~key =
  let b = bucket t key in
  Simsched.Mutex.lock (sched t) t.locks.(b);
  match search_locked t ~slot ~key b with
  | found ->
      Simsched.Mutex.unlock (sched t) t.locks.(b);
      found
  | exception e -> abort t b e

let rec unlink t ~slot ~key b prev node =
  if node = 0 then false
  else if Simsched.Env.load t.env (key_of node) = key then begin
    let nxt = Respct.Runtime.read t.rt ~slot (next_cell node) in
    if prev = 0 then Respct.Runtime.update t.rt ~slot (head_cell t b) nxt
    else Respct.Runtime.update t.rt ~slot (next_cell prev) nxt;
    Respct.Runtime.free t.rt ~slot node ~words:node_words;
    true
  end
  else
    unlink t ~slot ~key b node (Respct.Runtime.read t.rt ~slot (next_cell node))

let remove t ~slot ~key =
  let b = bucket t key in
  Simsched.Mutex.lock (sched t) t.locks.(b);
  match
    unlink t ~slot ~key b 0 (Respct.Runtime.read t.rt ~slot (head_cell t b))
  with
  | removed ->
      Simsched.Mutex.unlock (sched t) t.locks.(b);
      removed
  | exception e -> abort t b e

let ops t : Ops.map =
  {
    Ops.insert = (fun ~slot ~key ~value -> insert t ~slot ~key ~value);
    remove = (fun ~slot ~key -> remove t ~slot ~key);
    search = (fun ~slot ~key -> search t ~slot ~key);
    map_rp = (fun ~slot ~id -> Respct.Runtime.rp t.rt ~slot id);
  }

let heads t = t.heads
let buckets t = t.buckets

(* The order of (key, value) bindings: by key, then by value -- the order
   the polymorphic [compare] gives int pairs, without its generic walk. *)
let compare_binding ((k, v) : int * int) ((k', v') : int * int) =
  match Int.compare k k' with 0 -> Int.compare v v' | c -> c

(* Recovery-time view over the persistent image: rebuild the logical
   contents bucket by bucket (used by crash-consistency tests).
   Parameterised over the read function and the geometry so the same walk
   serves every vantage point — a live map read through [Memsys.persisted],
   a reopened file image read through a backend's [persisted], or a
   pre-crash snapshot read through [peek] — including from a process that
   holds no [t] (the prockill parent reconstructs the walk from the heads
   base and bucket count in the child's progress log). *)
let bindings_of ~read ~line_words ~fuel ~heads ~buckets =
  (* Fuel bounds each bucket walk: a corrupt image (the crash explorer
     feeds us adversarial ones) can tie a chain into a cycle. *)
  let rec walk node acc fuel =
    if node = 0 then acc
    else if fuel = 0 then failwith "persisted bucket chain is cyclic"
    else
      walk
        (read (next_cell node))
        ((read (key_of node), read (value_cell node)) :: acc)
        (fuel - 1)
  in
  let all = ref [] in
  for b = 0 to buckets - 1 do
    all :=
      walk (read (Respct.Heap.cell_at_words ~line_words heads b)) !all fuel
  done;
  List.sort compare_binding !all

let persisted_bindings mem t =
  bindings_of
    ~read:(Simnvm.Memsys.persisted mem)
    ~line_words:(Simsched.Env.line_words t.env)
    ~fuel:(Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words
    ~heads:t.heads ~buckets:t.buckets
