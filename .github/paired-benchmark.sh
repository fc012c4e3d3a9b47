#!/usr/bin/env bash
# Paired host-speed gate: run the four BENCHMARK.json workloads on a parent
# commit and on this checkout alternately, then judge the change with
# `benchmark/main.exe compare`. From anywhere inside the repository:
#
#   bash .github/paired-benchmark.sh PARENT_COMMIT
#
# The parent is checked out into a temporary `git worktree`, and each tree
# builds and runs its own benchmark/run.sh. Seed i runs every workload on
# both trees back to back, the parent first when i is odd. Everything goes
# to bench-pair/: the recorded invocations (parent.json, change.json), each
# invocation's report, each tree's code-layout table (layout-parent.txt,
# layout-change.txt, from .github/layout.sh) and compare's table
# (compare.txt). The exit status is compare's: 1 when a host metric
# regresses beyond its BENCHMARK.json bound or a simulated metric differs
# for a seed.
set -euo pipefail

parent_rev="${1:?usage: paired-benchmark.sh PARENT_COMMIT}"
pairs=5
workloads=(map-write map-read kv-service crash-matrix)
# Smoke size keeps map-write near 2 s an invocation. crash-matrix runs at
# full size (about 2.6 s): its smoke worlds differ so much between seeds
# that seeds 1-5 spread its host_ops_per_s by 13-24% between quartiles,
# over the 15% bound, so compare mostly says "unresolved" (a planted 2.3x
# slowdown did); at full size the spread was 5-18% (2-vCPU shared VM).
# kv-service runs at full size too: at smoke size (20 sessions x 20
# requests) set-up dominates each execution, so a change to the request
# path barely moves host_ops_per_s (a 1.10-1.15x full-size gain read
# 1.01x there). So does map-read: its smoke world (4 fibers over 256
# buckets) fits the host's caches, and a change to the scheduler's
# synchronisation state that gained 1.06-1.09x at full size read 1.02x
# there. A full-size map-read invocation takes about 6.7 s wall instead
# of 1.0 s, which makes the gate about 57 s longer.
declare -A size=([map-write]=--smoke [map-read]= [kv-service]=
  [crash-matrix]=)

change="$(git rev-parse --show-toplevel)"
out="$change/bench-pair"
tmp="$(mktemp -d)"
parent="$tmp/parent"
git -C "$change" worktree add --detach --quiet "$parent" "$parent_rev"
trap 'git -C "$change" worktree remove --force "$parent"; rm -rf "$tmp"' EXIT
declare -A tree=([parent]="$parent" [change]="$change")
# Each tree builds into its own .bench_build.
unset CARGO_TARGET_DIR
rm -rf "$out"
mkdir -p "$out"

for seed in $(seq 1 "$pairs"); do
  if ((seed % 2)); then order=(parent change); else order=(change parent); fi
  for w in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      bash "${tree[$side]}/benchmark/run.sh" --workload "$w" --seed "$seed" \
        ${size[$w]} --seconds 2 --trace 0 --out "$out/$side.json" \
        > "$out/$side-$w-$seed.txt"
    done
  done
done

# A host difference can be a code-layout shift rather than a code change:
# record where each tree's hot modules landed.
for side in parent change; do
  bash "$change/.github/layout.sh" \
    "${tree[$side]}/.bench_build/default/benchmark/main.exe" \
    > "$out/layout-$side.txt"
done

status=0
"$change/.bench_build/default/benchmark/main.exe" compare \
  "$out/parent.json" "$out/change.json" > "$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit "$status"
