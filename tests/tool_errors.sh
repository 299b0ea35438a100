#!/usr/bin/env bash
# Bad input must end every command-line tool with a one-line "<tool>: reason"
# on stderr and a nonzero status — never with an uncaught exception, which
# aborts the process ("terminate called after throwing ...", status 134).
#
# Usage: tool_errors.sh BIN_DIR WORK_DIR
#   BIN_DIR   directory holding pdslin, pdslin_serve and pdslin_fuzz
#   WORK_DIR  scratch directory for the malformed input files
set -u
bin=$1
work=$2
mkdir -p "$work"
printf '%%%%MatrixMarket matrix coordinate real general\n3 3 x\n' \
  > "$work/malformed.mtx"
printf '{"requests": [{"matrix": ' > "$work/malformed.json"
# threads 2.5: cast to unsigned, this replayed with 2 workers.
printf '%s\n' '{"artifact": "pdslin-fuzz-case", "version": 1, "spec": {' \
  '"family": "grid", "n": 64, "seed": 1, "density": 0.08,' \
  '"partitioning": "NGD", "num_subdomains": 4, "threads": 2.5,' \
  '"inner_threads": 1, "nrhs": 1, "krylov": "gmres",' \
  '"exact_assembly": true, "serve": false}}' \
  > "$work/bad_count.json"
# serve 1: read without a type check, this replayed as serve false.
printf '%s\n' '{"artifact": "pdslin-fuzz-case", "version": 1, "spec": {' \
  '"family": "grid", "n": 64, "seed": 1, "density": 0.08,' \
  '"partitioning": "NGD", "num_subdomains": 4, "threads": 1,' \
  '"nrhs": 1, "krylov": "gmres", "exact_assembly": true, "serve": 1}}' \
  > "$work/bad_bool.json"
# 2^32 + 3 rows: read through a 32-bit cast, this was a 3 x 3 matrix.
printf '%%%%MatrixMarket matrix coordinate real general\n4294967299 3 3\n1 1 1\n2 2 1\n3 3 1\n' \
  > "$work/oversized.mtx"

failures=0
# expect_error TOOL ARGS... — TOOL must exit in [1, 127], print its name as
# the prefix of an error line, and not mention std::terminate.
expect_error() {
  local tool=$1
  shift
  local err status
  err=$("$bin/$tool" "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ge 128 ] ||
     grep -q "terminate called" <<<"$err" ||
     ! grep -q "^$tool: " <<<"$err"; then
    echo "FAIL: $tool $* (exit $status)"
    printf '%s\n' "$err" | head -5
    failures=$((failures + 1))
  else
    echo "ok:   $tool $* (exit $status): $(grep -m1 "^$tool: " <<<"$err")"
  fi
}

expect_error pdslin --matrix "$work/missing.mtx"
expect_error pdslin --matrix "$work/malformed.mtx"
expect_error pdslin --matrix "$work/oversized.mtx"
expect_error pdslin --matrix tdr190k --scale 0.05 -k 3
expect_error pdslin --matrix tdr190k --scale 0.05 --threads abc
expect_error pdslin --matrix tdr190k --scale 0.05x
expect_error pdslin --matrix tdr190k --scale 0.05 -k 8x
expect_error pdslin --matrix tdr190k --scale 0.05 --partition-engine geometric
expect_error pdslin --matrix tdr190k --scale 0.05 --partition-budget-ms 5
expect_error pdslin --matrix tdr190k --scale 0.05 --partition-min-quality 0.5
expect_error pdslin --matrix tdr190k --scale 0.05 --lu-kernel scalar
expect_error pdslin --matrix tdr190k --scale 0.05 --inner-threads 2
expect_error pdslin --matrix tdr190k --scale 0.05 --lu-panel-width 8
expect_error pdslin --matrix tdr190k --scale 0.05 --lu-panel-relax 0
expect_error pdslin_serve --workload "$work/missing.json"
expect_error pdslin_serve --workload "$work/malformed.json"
expect_error pdslin_serve --matrix "$work/missing.mtx" --requests 1
expect_error pdslin_serve --max-wait-ms 2
expect_error pdslin_serve --batch on
expect_error pdslin_serve --max-batch 4
expect_error pdslin_serve --matrix tdr190k --scale 0.05 --requests 2 --workers abc
expect_error pdslin_serve --capacity-mb 100000000000000
expect_error pdslin_serve --inner-threads 2
expect_error pdslin_fuzz --seeds notanumber
expect_error pdslin_fuzz --replay "$work/missing.json"
expect_error pdslin_fuzz --replay "$work/bad_count.json"
expect_error pdslin_fuzz --replay "$work/bad_bool.json"

if [ "$failures" -ne 0 ]; then
  echo "$failures tool invocation(s) did not fail cleanly"
  exit 1
fi
echo "all tool invocations failed cleanly"
