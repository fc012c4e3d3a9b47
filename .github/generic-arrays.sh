#!/usr/bin/env bash
# Generic array reads in the hot modules of a native OCaml binary. A read
# from an array whose element type the compiler does not know ('a array,
# or an abstract type) tests the array's tag for a float array (`cmp
# $0xfe`, Double_array_tag) and keeps a path that boxes; an `int array`
# or a record array reads directly. For each named module, this lists
# every function whose code makes that test and exits 1 if there is any.
#
#   bash .github/generic-arrays.sh .bench_build/default/benchmark/main.exe \
#     Checksum Recovery Heap Memsys Scheduler Env Explore Crashpoint
#
# A module is named as in the source (Checksum) or with its library
# prefix as the symbols spell it (Respct__Checksum). Hashmap_respct is
# left out on purpose: its bucket locks are a `Simsched.Mutex.t array`,
# and Mutex.t is abstract outside lib/simsched, so those reads stay
# generic.
set -euo pipefail

bin="${1:?usage: generic-arrays.sh BINARY MODULE...}"
shift
[ "$#" -gt 0 ] || { echo "usage: generic-arrays.sh BINARY MODULE..." >&2; exit 2; }
modules=$(printf '%s|' "$@")
found=$(objdump -d --no-show-raw-insn "$bin" | awk -v mods="${modules%|}" '
  BEGIN { n = split(mods, m, "|") }
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($2, 2, length($2) - 3); hit = ""
    for (i = 1; i <= n; i++)
      if (fn ~ ("^caml([A-Za-z0-9_]*__)?" m[i] "\\.")) hit = fn
    next
  }
  hit != "" && /cmp[a-z]*[ \t]+\$0xfe,/ { print hit; hit = "" }
' | sed -E 's/^caml([A-Za-z0-9_]*__)?//; s/_[0-9]+$//' | sort -u)
if [ -n "$found" ]; then
  echo "generic array reads (float-array tag tests) in:"
  echo "$found"
  exit 1
fi
