(* Host-time profiler for the traced pass, built from the outside: an
   interval timer interrupts the process and the handler records the OCaml
   call stack; [profile] then charges each sample to source files.

   The timer is ITIMER_REAL. ITIMER_PROF would count CPU time only, but
   Linux fires process CPU timers at the scheduler tick (250 Hz on the
   reference box), far too coarse for a few-second pass; the benchmark
   child is single-threaded and CPU-bound, so its wall time is its CPU
   time. *)

type t = { mutable stacks : Printexc.raw_backtrace list }

let interval_s = 0.0005
let depth = 256

let timer v = { Unix.it_interval = v; it_value = v }

let start () =
  let t = { stacks = [] } in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> t.stacks <- Printexc.get_callstack depth :: t.stacks));
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer interval_s));
  t

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
  (* SIGALRM's default action terminates the process: ignore, never
     restore, so a tick already pending cannot kill the child. *)
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
  t.stacks

(* ------------------------------------------------------------------ *)
(* Attribution *)

type profile = {
  samples : int;
  file_self : (string * int) list;
      (** innermost frame under [lib/] (else the innermost frame at all) *)
  file_incl : (string * int) list;  (** file anywhere on the stack *)
  layer_self : (string * int) list;
  layer_incl : (string * int) list;
}

(* [lib/<layer>/<file>.ml] files belong to their layer; benchmark frames
   to "benchmark"; anything else with a location is the OCaml standard
   library (the only other code linked in). *)
let layer_of file =
  match String.split_on_char '/' file with
  | "lib" :: layer :: _ :: _ -> layer
  | "benchmark" :: _ -> "benchmark"
  | [ "?" ] -> "unknown"
  | _ -> "stdlib"

let in_lib file = String.length file > 4 && String.sub file 0 4 = "lib/"

let own_frame file = file = "benchmark/sampler.ml"

(* Ticks that land in the speed probe measure the benchmark, not the
   program: they are dropped. *)
let in_probe files = List.mem "benchmark/probe.ml" files

let files_of stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.map (fun s ->
             match Printexc.Slot.location s with
             | Some loc -> loc.Printexc.filename
             | None -> "?")
      |> List.filter (fun f -> not (own_frame f))

let profile stacks =
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let fs = Hashtbl.create 64 and fi = Hashtbl.create 64 in
  let ls = Hashtbl.create 16 and li = Hashtbl.create 16 in
  let samples = ref 0 in
  List.iter
    (fun stack ->
      match files_of stack with
      | [] -> ()
      | files when in_probe files -> ()
      | innermost :: _ as files ->
          incr samples;
          let self =
            match List.find_opt in_lib files with Some f -> f | None -> innermost
          in
          bump fs self;
          bump ls (layer_of self);
          List.iter (bump fi) (List.sort_uniq compare files);
          List.iter (bump li) (List.sort_uniq compare (List.map layer_of files)))
    stacks;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  in
  {
    samples = !samples;
    file_self = sorted fs;
    file_incl = sorted fi;
    layer_self = sorted ls;
    layer_incl = sorted li;
  }

let share p counts key =
  if p.samples = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (List.assoc_opt key counts))
    /. float_of_int p.samples

let to_json p =
  let counts kvs =
    Obs.Json.Obj
      (List.map
         (fun (k, n) ->
           ( k,
             Obs.Json.Obj
               [
                 ("samples", Obs.Json.Int n);
                 ("share", Obs.Json.Float (share p kvs k));
               ] ))
         kvs)
  in
  Obs.Json.Obj
    [
      ("samples", Obs.Json.Int p.samples);
      ("interval_s", Obs.Json.Float interval_s);
      ("file_self", counts p.file_self);
      ("file_inclusive", counts p.file_incl);
      ("layer_self", counts p.layer_self);
      ("layer_inclusive", counts p.layer_incl);
    ]
