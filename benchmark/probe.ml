(* Host timing on a shared machine.

   On the reference box a benchmark process's CPU slows by up to ~1.6x
   while co-tenants are busy, in phases lasting from a second to several
   minutes, so CPU seconds read the co-tenants as much as the code (ten
   runs of one workload spread by 14-29% between quartiles).

   Every execution therefore cuts its timed phases into slices of
   [interval_s] CPU seconds and, at each cut, times a fixed probe kernel.
   A slice's host time is its CPU time scaled by [reference_s] over the
   probe's time: host seconds are reference-box seconds, and a slowdown
   that hits the workload and the probe alike cancels out. Of the kernels
   tried (random access over 8 MiB, 256 KiB and 16 KiB, a pure multiply
   chain, and this one), this one tracked every workload's speed most
   closely; with it the ten-run spread of host throughput fell to 2-4%.
   Slices are never dropped: a phase of contention longer than a whole
   run leaves no uncontended slice to select. *)

type phase = Setup | Window | Untimed

type slice = { phase : phase; cpu : float; probe : float }

type t = {
  mutable current : phase;
  mutable slices : slice list;
  mutable last_cpu : float;
}

let interval_s = 0.1

(* The kernel's duration on the reference box (see README.md) when no
   co-tenant slows it. *)
let reference_s = 0.0005

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* It allocates nothing, so it never runs a collection on the
   workload's behalf. *)
let kernel () =
  let x = ref 1 and c = ref 0 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if !x land 1 = 0 then c := !c + i
    else if !x land 2 = 0 then c := !c - 1
    else c := !c lxor i
  done;
  ignore (Sys.opaque_identity !c)

(* The stack sampler's SIGALRM is held off while the probe runs, so the
   sampler's overhead stays in the workload's slices and shows in the
   traced pass's throughput. *)
let time_kernel () =
  let masked = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  let t0 = Unix.gettimeofday () in
  kernel ();
  let d = Unix.gettimeofday () -. t0 in
  ignore (Unix.sigprocmask Unix.SIG_SETMASK masked);
  d

(* Close the running slice (probing the machine) and start the next one in
   [next]. *)
let cut t next =
  let cpu = cpu_s () in
  let probe = time_kernel () in
  if t.current <> Untimed then
    t.slices <- { phase = t.current; cpu = cpu -. t.last_cpu; probe } :: t.slices;
  t.current <- next;
  t.last_cpu <- cpu_s ()

let timer v = { Unix.it_interval = v; it_value = v }

let start () =
  let t = { current = Setup; slices = []; last_cpu = cpu_s () } in
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> cut t t.current));
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL (timer interval_s));
  t

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL (timer 0.0));
  Sys.set_signal Sys.sigvtalrm Sys.Signal_ignore;
  cut t Untimed;
  List.rev t.slices

(* Host seconds spent in [phase], in reference-box seconds. *)
let phase_time phase slices =
  List.fold_left
    (fun a s -> if s.phase = phase then a +. (s.cpu *. reference_s /. s.probe) else a)
    0.0 slices
