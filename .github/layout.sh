#!/usr/bin/env bash
# Code-layout table of a native OCaml binary: how many calls caml_program
# makes (one per linked module with an entry; each moves every later
# function by 16 bytes) and where each hot module's code begins, mod 64.
# Shifting the hot code by 16-32 bytes mod 64 has moved host_ops_per_s by
# 10-20% with no change to the code, so compare the tables of two builds
# before reading a host-speed difference between them as a code effect.
#
#   bash .github/layout.sh .bench_build/default/benchmark/main.exe
#
# A module the binary does not link prints "-".
set -euo pipefail

bin="${1:?usage: layout.sh BINARY}"
calls=$(objdump -d --no-show-raw-insn --disassemble=caml_program "$bin" |
  grep -c $'\tcall')
syms=$(nm "$bin")
printf '%-18s %s\n' caml_program "$calls calls"
# symbol prefix (after "caml"):printed name
for m in Respct_benchmark__Probe:Probe Harness__Workload:Harness.Workload \
  Pds__Hashmap_respct:Hashmap_respct Respct__Checksum:Checksum \
  Respct__Heap:Heap Respct__Runtime:Runtime \
  Respct__Recovery:Recovery Simsched__Scheduler:Scheduler Simsched__Env:Env \
  Simsched__Mutex:Mutex Simsched__Condvar:Condvar Simnvm__Memsys:Memsys \
  Simnvm__Backend:Backend Crashtest__Crashpoint:Crashpoint \
  Crashtest__Explore:Explore Crashtest__Scenarios:Scenarios; do
  name=${m#*:}
  addr=$(awk -v s="caml${m%%:*}.code_begin" '$3 == s { print $1 }' <<<"$syms")
  if [ -n "$addr" ]; then
    printf '%-18s %d\n' "$name" $((16#$addr % 64))
  else
    printf '%-18s -\n' "$name"
  fi
done
