#!/usr/bin/env bash
# Same bits against a git revision, in one command:
#
#   tools/ab/bits.sh REV [--smoke]
#
# Extracts REV's src/ with `git archive` into a temporary directory and
# builds it and this checkout's src/ (the working tree) with the same flags:
# one throwaway CMake project per side that adds src/ as a subdirectory, as
# benchmark/CMakeLists.txt does. Both sides compile this checkout's
# tools/ab/digest.cpp, which includes public headers only. Both digests run
# at --threads 1 and 4 (--smoke: the same lanes at a quarter scale); the
# script prints the first differing lines of each pair and exits 1 on any
# difference, 0 when every line is the same, 2 on a usage or build error.
set -euo pipefail

usage() {
  echo "usage: tools/ab/bits.sh REV [--smoke]" >&2
  exit 2
}
rev=""
smoke=()
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=(--smoke) ;;
    -*) usage ;;
    *) [[ -z "$rev" ]] || usage; rev="$arg" ;;
  esac
done
[[ -n "$rev" ]] || usage

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(cd "$here/../.." && pwd -P)"
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
  echo "bits.sh: unknown revision $rev" >&2
  exit 2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/pdslin-bits.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
git -C "$root" archive "$rev" src | tar -x -C "$work/base"
jobs="$(nproc 2>/dev/null || echo 2)"

# build_side NAME SRC: the library from SRC and the digest, in $work/NAME.
build_side() {
  local name="$1" src="$2"
  mkdir -p "$work/$name"
  cat >"$work/$name/CMakeLists.txt" <<EOF
cmake_minimum_required(VERSION 3.16)
project(pdslin_bits_$name CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
find_package(Threads REQUIRED)
add_subdirectory("$src" pdslin)
add_executable(digest "$root/tools/ab/digest.cpp")
target_link_libraries(digest PRIVATE pdslin)
EOF
  if ! { cmake -S "$work/$name" -B "$work/$name/build" \
           -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$work/$name/build" --target digest -j "$jobs"; } \
       >"$work/$name.log" 2>&1; then
    tail -n 30 "$work/$name.log" >&2
    echo "bits.sh: building the $name side failed" >&2
    exit 2
  fi
}
build_side base "$work/base/src"
build_side change "$root/src"

status=0
for threads in 1 4; do
  for side in base change; do
    "$work/$side/build/digest" --threads "$threads" ${smoke[@]+"${smoke[@]}"} \
      >"$work/$side-t$threads.txt"
  done
  lines="$(wc -l <"$work/base-t$threads.txt")"
  if cmp -s "$work/base-t$threads.txt" "$work/change-t$threads.txt"; then
    echo "threads $threads: $lines lines, no line differs from $rev"
  else
    echo "threads $threads: differs from $rev (first lines, < $rev, > this checkout):"
    diff "$work/base-t$threads.txt" "$work/change-t$threads.txt" | head -n 20 || true
    status=1
  fi
done
exit "$status"
