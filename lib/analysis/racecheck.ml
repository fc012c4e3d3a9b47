(* Vector-clock data-race checker for access traces.

   ResPCT assumes race-free lock-based programs (paper section 2.1): two
   conflicting accesses to the same variable must be ordered by
   happens-before edges induced by lock release/acquire pairs. This checker
   validates that assumption: it implements the standard vector-clock
   algorithm (FastTrack-style, unoptimised) over reads, writes, acquires
   and releases.

   The checker is streaming: [create] makes an empty state, [push] feeds
   one Simnvm.Event, [races] reads the verdicts so far. That shape lets
   it sit directly on a world's bus (Audit), consuming events as the
   simulation produces them, with the batch [check] kept as a wrapper for
   event lists. *)

type access = Aread | Awrite

type race = {
  addr : int;
  first_thread : int;
  first_access : access;
  second_thread : int;
  second_access : access;
}

module Vc = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let get (t : t) i = Option.value ~default:0 (Hashtbl.find_opt t i)
  let set (t : t) i v = Hashtbl.replace t i v

  let join (a : t) (b : t) =
    Hashtbl.iter (fun i v -> if v > get a i then set a i v) b

  let copy (t : t) : t = Hashtbl.copy t
end

type shadow = {
  mutable last_writes : (int * int) list; (* (thread, clock) per writer *)
  mutable last_reads : (int * int) list;
}

type t = {
  threads : (int, Vc.t) Hashtbl.t;
  locks : (int, Vc.t) Hashtbl.t;
  vars : (int, shadow) Hashtbl.t;
  seen : (int * int * int, unit) Hashtbl.t;
      (* (addr, lo thread, hi thread) pairs already reported *)
  mutable found : race list; (* newest first, deduped *)
  mutable n_races : int; (* every detection, duplicates included *)
}

let create () =
  {
    threads = Hashtbl.create 8;
    locks = Hashtbl.create 8;
    vars = Hashtbl.create 64;
    seen = Hashtbl.create 16;
    found = [];
    n_races = 0;
  }

let vc_of t thread =
  match Hashtbl.find_opt t.threads thread with
  | Some vc -> vc
  | None ->
      let vc = Vc.create () in
      Vc.set vc thread 1;
      Hashtbl.add t.threads thread vc;
      vc

let shadow_of t addr =
  match Hashtbl.find_opt t.vars addr with
  | Some s -> s
  | None ->
      let s = { last_writes = []; last_reads = [] } in
      Hashtbl.add t.vars addr s;
      s

(* event (thread, clock) happens-before the state vc *)
let happens_before (thread, clock) vc = clock <= Vc.get vc thread

(* Long traces hammer the same unordered pair over and over (every loop
   iteration re-detects it); [races] keeps one report per
   (addr, unordered thread pair) while [race_count] still counts every
   detection. *)
let report t addr (first, first_access) (second, second_access) =
  t.n_races <- t.n_races + 1;
  let key = (addr, min first second, max first second) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.found <-
      { addr; first_thread = first; first_access; second_thread = second;
        second_access }
      :: t.found
  end

let push t ev =
  match ev with
  | Simnvm.Event.Acquire { tid = thread; lock } -> (
      let vc = vc_of t thread in
      match Hashtbl.find_opt t.locks lock with
      | Some lvc -> Vc.join vc lvc
      | None -> ())
  | Simnvm.Event.Release { tid = thread; lock } ->
      let vc = vc_of t thread in
      Hashtbl.replace t.locks lock (Vc.copy vc);
      Vc.set vc thread (Vc.get vc thread + 1)
  | Simnvm.Event.Load { tid = thread; addr } ->
      let vc = vc_of t thread in
      let s = shadow_of t addr in
      List.iter
        (fun (w, c) ->
          if w <> thread && not (happens_before (w, c) vc) then
            report t addr (w, Awrite) (thread, Aread))
        s.last_writes;
      s.last_reads <-
        (thread, Vc.get vc thread)
        :: List.filter (fun (th, _) -> th <> thread) s.last_reads
  | Simnvm.Event.Store { tid = thread; addr } ->
      let vc = vc_of t thread in
      let s = shadow_of t addr in
      List.iter
        (fun (w, c) ->
          if w <> thread && not (happens_before (w, c) vc) then
            report t addr (w, Awrite) (thread, Awrite))
        s.last_writes;
      List.iter
        (fun (r, c) ->
          if r <> thread && not (happens_before (r, c) vc) then
            report t addr (r, Aread) (thread, Awrite))
        s.last_reads;
      s.last_writes <- [ (thread, Vc.get vc thread) ];
      s.last_reads <- []
  | _ -> ()

let races t = List.rev t.found
let race_count t = t.n_races

let check events =
  let t = create () in
  List.iter (push t) events;
  races t

let race_free events = check events = []
