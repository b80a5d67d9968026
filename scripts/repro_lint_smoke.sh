#!/usr/bin/env bash
# Smoke test for the repro_lint CLI (tools/repro_lint.cpp), run as a
# ctest by tools/CMakeLists.txt:
#
#   repro_lint_smoke.sh <path-to-repro_lint> <repo-root>
#
# Asserts the documented exit-code contract over the checked-in inputs:
#   0/1 (clean / findings) on every well-formed example and fuzz seed,
#   2 on every malformed regression input,
#   0 on the shipped certifier pair, 3 on a structurally unrelated one,
#   1 with the dead logic of lint_findings.bench named by the floating
#   and unobservable passes, 4 for the removed --sweep flag.
set -u

LINT="$1"
ROOT="$2"
failures=0

expect() {
  local want="$1"; shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

# At most this exit code (well-formed inputs: 0 clean or 1 findings).
expect_parses() {
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ge 2 ]; then
    echo "FAIL: expected exit 0 or 1, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

expect 0 "$LINT" --list
expect 4 "$LINT"
expect 4 "$LINT" --no-such-flag "$ROOT/examples/s27_like.bench"
expect 4 "$LINT" --sweep "$ROOT/examples/lint_findings.bench"
expect 4 "$LINT" --passes no-such-pass "$ROOT/examples/s27_like.bench"

# Well-formed examples: the clean ones exit 0, the deliberately
# suspect one exits 1, none may hit a parse/structural error.
expect 0 "$LINT" --scoap "$ROOT/examples/s27_like.bench"
expect 1 "$LINT" "$ROOT/examples/lint_findings.bench"
for f in "$ROOT"/examples/*.bench; do
  expect_parses "$LINT" "$f"
done

# Fuzz seed corpus: every seed except the deliberately malformed one
# must parse (exit < 2); the malformed seed must exit exactly 2.
for f in "$ROOT"/fuzz/corpus/*.bench; do
  case "$f" in
    *malformed*) expect 2 "$LINT" "$f" ;;
    *)           expect_parses "$LINT" "$f" ;;
  esac
done

# Fuzzer-found regressions guard parser hazards: most are malformed
# (exit 2) but some parse fine (the torn-file shape).  The contract is
# a clean, deliberate exit — never a crash or usage error.
for f in "$ROOT"/fuzz/regressions/*.bench; do
  "$LINT" "$f" > /dev/null 2>&1
  got=$?
  if [ "$got" -gt 2 ]; then
    echo "FAIL: expected exit 0..2, got $got: $f" >&2
    failures=$((failures + 1))
  fi
done

# Certifier: the shipped forward-move pair certifies (prefix 1); an
# unrelated circuit is refused with exit 3.
expect 0 "$LINT" "$ROOT/examples/certify_original.bench" \
  --certify "$ROOT/examples/certify_retimed.bench"
expect 3 "$LINT" "$ROOT/examples/certify_original.bench" \
  --certify "$ROOT/examples/s27_like.bench"

# Dead logic: the three dead nodes of lint_findings.bench are named by
# the floating and unobservable passes.
findings="$("$LINT" "$ROOT/examples/lint_findings.bench" 2> /dev/null)"
for finding in "unobservable: no path from 'one'" \
               "unobservable: no path from 'dead_gate'" \
               "floating net: gate output 'floating'"; do
  case "$findings" in
    *"$finding"*) ;;
    *) echo "FAIL: lint_findings.bench lacks: $finding" >&2
       failures=$((failures + 1)) ;;
  esac
done

if [ "$failures" != 0 ]; then
  echo "repro_lint smoke: $failures failure(s)" >&2
  exit 1
fi
echo "repro_lint smoke: OK"
