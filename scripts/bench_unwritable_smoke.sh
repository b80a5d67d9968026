#!/usr/bin/env bash
# Unwritable-output check for the perf bench drivers, run as the
# bench_unwritable_smoke ctest:
#
#   bench_unwritable_smoke.sh <bench_atpg_perf> <bench_faultsim_perf>
#
# Runs each driver with --smoke in a temporary directory where its
# BENCH_*.json is a directory, which no process can open for writing.
# Each run must exit 4 ("rows computed but the output JSON could not be
# written", docs/ROBUSTNESS.md) and must not claim it wrote the file.
set -u

DRIVERS=("$(readlink -f "$1")" "$(readlink -f "$2")")
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP" || exit 1
mkdir BENCH_atpg.json BENCH_faultsim.json

status=0
for driver in "${DRIVERS[@]}"; do
  name="$(basename "$driver")"
  "$driver" --smoke > out.txt 2>&1
  code=$?
  if [ "$code" -ne 4 ]; then
    echo "FAIL: $name exited $code, expected 4"
    status=1
  fi
  if grep -q '^wrote ' out.txt; then
    echo "FAIL: $name printed a 'wrote' line:"
    grep '^wrote ' out.txt
    status=1
  fi
  [ "$code" -eq 4 ] && echo "ok: $name exits 4 on an unwritable BENCH file"
done
exit "$status"
