(* The one typed event stream of a simulated world.

   Every observable action of the world is one constructor: the memory
   (Memsys or Filemem) publishes its accesses, cache outcomes,
   write-backs, persistence instructions and crashes; Simsched.Env
   publishes atomic RMW markers and compute charges; Simsched.Mutex
   publishes lock operations; the ResPCT runtime publishes restart-point
   markers. All of them publish on one bus per world (owned by the
   world's scheduler, and coupled to the memory by Env.make), so Stats,
   the observability probes, the crash explorer and the trace analyses
   are ordinary subscribers that see the same stream.

   The disabled fast path is one integer test: producers guard with
   [active] before even constructing an event. *)

type backing = Nvm | Dram

type t =
  | Load of { tid : int; addr : int }
  | Store of { tid : int; addr : int }
  | Hit of { addr : int }
  | Miss of { backing : backing; addr : int; prefetched : bool }
  | Writeback of { backing : backing; line : int }
  | Pwb of { tid : int; addr : int; dirty : bool }
  | Psync of { tid : int }
  | Eviction of { line : int } (* spontaneous background eviction *)
  | Crash of { eadr : bool }
  | Media_error of { addr : int; line : int; transient : bool }
      (* a load touched a poisoned (or transiently failing) line *)
  | Media_scrub of { line : int } (* host/recovery cleared a poisoned line *)
  | Rmw of { tid : int; addr : int }
  | Compute of { tid : int; ns : float }
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Restart_point of { tid : int; id : int }

let backing_label = function Nvm -> "nvm" | Dram -> "dram"

let pp ppf = function
  | Load { tid; addr } -> Fmt.pf ppf "load[%d] %d" tid addr
  | Store { tid; addr } -> Fmt.pf ppf "store[%d] %d" tid addr
  | Hit { addr } -> Fmt.pf ppf "hit %d" addr
  | Miss { backing; addr; prefetched } ->
      Fmt.pf ppf "miss(%s%s) %d" (backing_label backing)
        (if prefetched then ",prefetched" else "")
        addr
  | Writeback { backing; line } ->
      Fmt.pf ppf "writeback(%s) line %d" (backing_label backing) line
  | Pwb { tid; addr; dirty } ->
      Fmt.pf ppf "pwb[%d] %d%s" tid addr (if dirty then "" else " (clean)")
  | Psync { tid } -> Fmt.pf ppf "psync[%d]" tid
  | Eviction { line } -> Fmt.pf ppf "eviction line %d" line
  | Crash { eadr } -> Fmt.pf ppf "crash%s" (if eadr then " (eadr)" else "")
  | Media_error { addr; line; transient } ->
      Fmt.pf ppf "media error%s word %d (line %d)"
        (if transient then " (transient)" else "")
        addr line
  | Media_scrub { line } -> Fmt.pf ppf "media scrub line %d" line
  | Rmw { tid; addr } -> Fmt.pf ppf "rmw[%d] %d" tid addr
  | Compute { tid; ns } -> Fmt.pf ppf "compute[%d] %gns" tid ns
  | Acquire { tid; lock } -> Fmt.pf ppf "acquire[%d] lock %d" tid lock
  | Release { tid; lock } -> Fmt.pf ppf "release[%d] lock %d" tid lock
  | Restart_point { tid; id } -> Fmt.pf ppf "rp[%d] %d" tid id

(* ------------------------------------------------------------------ *)
(* The bus *)

type subscription = int

(* Parallel id/function arrays with an explicit count: subscribe grows by
   doubling, unsubscribe shifts in place — the crash explorer's
   attach/detach churn around every run of a world allocates nothing. *)
type bus = {
  mutable sink_ids : int array;
  mutable sink_fns : (t -> unit) array;
  mutable n_sinks : int;
  mutable next_sub : int;
}

let no_sink (_ : t) = ()
let create_bus () = { sink_ids = [||]; sink_fns = [||]; n_sinks = 0; next_sub = 0 }
let[@inline] active b = b.n_sinks > 0
let subscriber_count b = b.n_sinks

let emit b ev =
  let fns = b.sink_fns in
  for i = 0 to b.n_sinks - 1 do
    (Array.unsafe_get fns i) ev
  done

let subscribe b f =
  let id = b.next_sub in
  b.next_sub <- id + 1;
  let n = b.n_sinks in
  if n = Array.length b.sink_ids then begin
    let cap = max 4 (2 * n) in
    let ids = Array.make cap (-1) and fns = Array.make cap no_sink in
    Array.blit b.sink_ids 0 ids 0 n;
    Array.blit b.sink_fns 0 fns 0 n;
    b.sink_ids <- ids;
    b.sink_fns <- fns
  end;
  b.sink_ids.(n) <- id;
  b.sink_fns.(n) <- f;
  b.n_sinks <- n + 1;
  id

(* The vacated slot gets a no-op function so the subscriber can be
   collected (and so an emit that captured the array mid-removal calls a
   harmless stub rather than a stale closure). *)
let unsubscribe b id =
  let n = b.n_sinks in
  let found = ref (-1) in
  for i = 0 to n - 1 do
    if !found < 0 && b.sink_ids.(i) = id then found := i
  done;
  match !found with
  | -1 -> ()
  | at ->
      for i = at to n - 2 do
        b.sink_ids.(i) <- b.sink_ids.(i + 1);
        b.sink_fns.(i) <- b.sink_fns.(i + 1)
      done;
      b.sink_ids.(n - 1) <- -1;
      b.sink_fns.(n - 1) <- no_sink;
      b.n_sinks <- n - 1

(* Run [f] with an accumulating subscriber attached, then detach it: a
   whole run's stream as one list, for tests that inspect it. *)
let record b f =
  let acc = ref [] in
  let id = subscribe b (fun ev -> acc := ev :: !acc) in
  let v = Fun.protect ~finally:(fun () -> unsubscribe b id) f in
  (v, List.rev !acc)
