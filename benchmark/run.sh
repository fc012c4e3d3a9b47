#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the repository root:
#
#   bash benchmark/run.sh --workload map-write --seed 42 --seconds 10 --trace 0
#
# Arguments go to `main.exe run` (see benchmark/README.md). The build goes
# to $CARGO_TARGET_DIR when set (a build directory shared with other
# tooling), else to .bench_build. Exits non-zero without printing a
# result when the build fails, e.g. outside a full checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" --profile release \
  ./benchmark/main.exe >&2
exec "$build_dir/default/benchmark/main.exe" run "$@"
