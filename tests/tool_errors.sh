#!/usr/bin/env bash
# Bad input must end every command-line tool with a one-line "<tool>: reason"
# on stderr and a nonzero status — never with an uncaught exception, which
# aborts the process ("terminate called after throwing ...", status 134).
#
# Usage: tool_errors.sh BIN_DIR WORK_DIR
#   BIN_DIR   directory holding pdslin, pdslin_serve, pdslin_fleet and
#             pdslin_worker
#   WORK_DIR  scratch directory for the malformed input files
set -u
bin=$1
work=$2
mkdir -p "$work"
printf '%%%%MatrixMarket matrix coordinate real general\n3 3 x\n' \
  > "$work/malformed.mtx"
printf '{"requests": [{"matrix": ' > "$work/malformed.json"

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
expect_error pdslin --matrix tdr190k --scale 0.05 -k 3
expect_error pdslin_serve --workload "$work/missing.json"
expect_error pdslin_serve --workload "$work/malformed.json"
expect_error pdslin_serve --matrix "$work/missing.mtx" --requests 1
expect_error pdslin_fleet --connect unix:"$work/none.sock" --matrix no_such_matrix
expect_error pdslin_fleet --connect tcp:notahost:99999
expect_error pdslin_worker --listen tcp:notahost:99999

if [ "$failures" -ne 0 ]; then
  echo "$failures tool invocation(s) did not fail cleanly"
  exit 1
fi
echo "all tool invocations failed cleanly"
