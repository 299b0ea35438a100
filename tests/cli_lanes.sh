#!/usr/bin/env bash
# Three pdslin lanes that no benchmark workload or fuzz case runs: BiCGSTAB
# (--krylov, mapped into KrylovOptions::method), the §IV-B hypergraph RHS
# ordering, and the natural RHS ordering (each D_ℓ ordered by minimum degree
# alone, without the e-tree postorder). Each must exit 0, converge, and
# print the same iteration count, operator applies, Krylov residual and true
# residual at --threads 1 and 4 (the numeric tokens, not whole lines: the
# summary embeds timings).
#
# Usage: cli_lanes.sh BIN_DIR
#   BIN_DIR   directory holding pdslin
set -u
bin=$1

failures=0
for lane in "--krylov bicgstab" "--rhs-ordering hypergraph" \
            "--rhs-ordering natural"; do
  ref=""
  for threads in 1 4; do
    # shellcheck disable=SC2086  # $lane is a flag and its value
    out=$("$bin/pdslin" --matrix tdr190k --scale 0.05 -k 4 $lane \
          --threads "$threads" 2>&1)
    status=$?
    tokens=$(grep -oE "iters=[0-9]+|applies=[0-9]+|relres=[0-9.e+-]+|true residual .*= [0-9.e+-]+" \
             <<<"$out")
    if [ "$status" -ne 0 ] || [ "$(wc -l <<<"$tokens")" -ne 4 ] ||
       ! grep -q "solve phase: 1/1 columns converged" <<<"$out"; then
      echo "FAIL: pdslin $lane --threads $threads (exit $status)"
      printf '%s\n' "$out" | tail -5
      failures=$((failures + 1))
    elif [ -n "$ref" ] && [ "$tokens" != "$ref" ]; then
      echo "FAIL: pdslin $lane --threads $threads:" $tokens "!=" $ref
      failures=$((failures + 1))
    else
      echo "ok:   pdslin $lane --threads $threads:" $tokens
    fi
    [ -z "$ref" ] && ref=$tokens
  done
done

if [ "$failures" -ne 0 ]; then
  echo "$failures lane run(s) failed"
  exit 1
fi
echo "every lane converged with the same numbers at 1 and 4 threads"
