#!/usr/bin/env bash
# The same-bits digest (tools/ab/digest.cpp) at --threads 1 and 4: every
# set-up and solve object must hash the same, since a set-up is a pure
# function of the matrix, the incidence and the options.
#
# Usage: digest_threads.sh DIGEST
#   DIGEST   the digest program
set -u
digest=$1

one=$("$digest" --smoke --threads 1) || { echo "FAIL: digest --threads 1"; exit 1; }
four=$("$digest" --smoke --threads 4) || { echo "FAIL: digest --threads 4"; exit 1; }
if [ -z "$one" ]; then
  echo "FAIL: digest printed nothing"
  exit 1
fi
if [ "$one" != "$four" ]; then
  echo "FAIL: the digest differs between --threads 1 and 4:"
  diff <(printf '%s\n' "$one") <(printf '%s\n' "$four") | head -20
  exit 1
fi
echo "ok: $(wc -l <<<"$one") objects hash the same at --threads 1 and 4"
