#!/usr/bin/env bash
# The repository benchmark: builds the pdslin_bench program from source and
# runs the workloads, each in a process of its own.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-dir DIR] [--smoke] [--out DIR]
#   benchmark/run.sh compare A B     (see benchmark/compare.py)
#
# Without --workload every workload runs in turn. Each prints its metrics as
# "workload metric value unit" and, last, one JSON line; each also writes
# its result with the host fingerprint to DIR (default
# .bench_build/results) as <workload>-seed<N>-trace<T>.json.
# The build lives in .bench_build/ at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(dirname "$here")"

if [[ "${1:-}" == "compare" ]]; then
  shift
  exec python3 "$here/compare.py" --bounds "$root/BENCHMARK.json" "$@"
fi

workload=""
seed=1
trace=0
out_dir="$root/.bench_build/results"
pass=()
while (($#)); do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --out) out_dir="${2:?--out needs a value}"; shift 2 ;;
    --trace-dir) mkdir -p "${2:?--trace-dir needs a value}"; pass+=("$1" "$2"); shift 2 ;;
    --seconds) pass+=("$1" "${2:?--seconds needs a value}"); shift 2 ;;
    --smoke) pass+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: the library sources ($root/src) are missing" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$out_dir"
export TMPDIR="$build/tmp"  # keeps the compiler's temporary files in the checkout
log="$build/build.log"
if [[ ! -f "$build/cmake/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S "$here" -B "$build/cmake" "${generator[@]}" >"$log" 2>&1 ||
    { tail -n 40 "$log" >&2; exit 1; }
fi
jobs="$(nproc 2>/dev/null || echo 2)"
cmake --build "$build/cmake" --target pdslin_bench -j "$jobs" >>"$log" 2>&1 ||
  { tail -n 40 "$log" >&2; exit 1; }

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [[ "$top" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
fi
export PDSLIN_BENCH_COMMIT="$commit"

if [[ -n "$workload" ]]; then
  workloads=("$workload")
else
  workloads=(cold-cavity cold-circuit warm-krylov serve-mix)
fi
for w in "${workloads[@]}"; do
  "$build/cmake/pdslin_bench" --workload "$w" --seed "$seed" --trace "$trace" \
    --out "$out_dir/$w-seed$seed-trace$trace.json" "${pass[@]}"
done
