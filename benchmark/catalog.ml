(* The metric dictionary: every number the benchmark reports, with its
   unit, direction and — for end-to-end metrics — the bound by which it
   may worsen before a change counts as a regression. BENCHMARK.json at
   the repository root mirrors the end-to-end and per-layer lists; the
   benchmark test holds the two in step.

   [exact] marks values that are a pure function of the workload and its
   seed (virtual time, simulator counts): repeated runs must reproduce
   them bit for bit, and [compare] holds them to equality instead of a
   bound. Per-layer metrics a workload does not exercise read 0. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end only *)
  exact : bool;
}

let e2e name unit better bound ~exact =
  { name; unit; better; bound = Some bound; exact }

let layer ?(exact = true) ?(better = Lower) name unit =
  { name; unit; better; bound = None; exact }

let host = layer ~exact:false
let share name = host name "share"

(* Reported by every run with [--trace 0]. *)
let end_to_end =
  [
    e2e "host_ops_per_s" "ops/s" Higher 0.15 ~exact:false;
    e2e "setup_s" "s" Lower 0.25 ~exact:false;
    e2e "host_peak_rss_mb" "MiB" Lower 0.10 ~exact:false;
    e2e "sim_mops" "ops/us" Higher 0.12 ~exact:true;
    e2e "sim_op_mean_ns" "ns" Lower 0.06 ~exact:true;
  ]

(* Reported by every run with [--trace 1]. *)
let per_layer =
  [
    layer "sim_op_p50_ns" "ns";
    layer "sim_op_p99_ns" "ns";
    layer "sim_op_p999_ns" "ns";
    layer ~better:Higher "sim_op_samples" "count";
    layer "sim_ckpt_stall_us" "us";
    layer "sim_recovery_us" "us";
    layer "failed_share" "share";
    host "trace_overhead" "ratio" ~better:Higher;
    host "trace_samples" "count" ~better:Higher;
    share "simsched.self_share";
    share "simsched.scheduler.self_share";
    share "simsched.env.self_share";
    share "simsched.mutex.self_share";
    host "simsched.scheduler.host_ns_per_op" "ns";
    layer "simsched.acquires_per_op" "count";
    share "simnvm.self_share";
    share "simnvm.memsys.self_share";
    host "simnvm.memsys.host_ns_per_access" "ns";
    layer "simnvm.accesses_per_op" "count";
    layer ~better:Higher "simnvm.hit_rate" "share";
    layer "simnvm.nvm_misses_per_op" "count";
    layer "simnvm.nvm_writebacks_per_op" "count";
    layer "simnvm.pwbs_per_op" "count";
    layer "simnvm.psyncs_per_op" "count";
    layer "simnvm.charged_ns_per_op" "ns";
    share "respct.self_share";
    share "respct.runtime.self_share";
    share "respct.recovery.self_share";
    layer "respct.rp.wait_ns_per_op" "ns";
    layer "respct.checkpoints" "count";
    layer "respct.flushed_addrs_per_ckpt" "count";
    layer "respct.flush_us_per_ckpt" "us";
    host "respct.recovery.host_ms" "ms";
    layer "respct.recovery.scanned" "count";
    layer "respct.recovery.rolled_back" "count";
    share "pds.self_share";
    layer "pds.insert.sim_ns" "ns";
    layer "pds.remove.sim_ns" "ns";
    layer "pds.search.sim_ns" "ns";
    share "service.self_share";
    share "service.front.self_share";
    share "service.admission.self_share";
    share "service.router.self_share";
    layer ~better:Higher "service.batch_size_mean" "count";
    layer ~better:Higher "service.coalesced_share" "share";
    layer "service.queue_depth_max" "count";
    layer "service.rejected_full" "count";
    layer "service.retried" "count";
    layer "service.stall_overlap_ns" "ns";
    share "crashtest.self_share";
    host "crashtest.recover_check.host_us" "us";
    host "crashtest.reexec.host_share" "share";
    layer ~better:Higher "crashtest.boundaries" "count";
    layer ~better:Higher "crashtest.images" "count";
    share "ocaml.stdlib.self_share";
    host "ocaml.alloc_words_per_op" "words";
    host "ocaml.major_words_per_op" "words";
    host "ocaml.major_collections" "count";
  ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun m -> m.name = name) all

let is_exact name =
  match find name with Some m -> m.exact | None -> false

let string_of_better = function Higher -> "higher" | Lower -> "lower"
