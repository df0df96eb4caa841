#!/bin/sh
# E0 smoke gate — runs e0_run.sh and machine-checks its transcript against
# the expectations of e0_expected.md (CI runs this; a human can still diff
# by eye). Exits non-zero on any missing marker.
set -e
cd "$(dirname "$0")"
sh e0_run.sh
out=results/e0.txt

fail() {
	echo "E0 CHECK FAILED: $1" >&2
	exit 1
}

[ -f "$out" ] || fail "no transcript at $out"

if grep -q '^--- FAIL\|^FAIL' "$out"; then
	fail "test failures in transcript"
fi

# Every scheduler's equivalence subtest must have passed.
for s in gpipe dapple vpp hanayo terapipe zb1p zbv svpp svpp-v2 mepipe mepipe-v2 mepipe-minmem; do
	grep -q -- "--- PASS: TestEverySchedulerMatchesSequential/$s" "$out" \
		|| fail "no PASS for scheduler $s"
done
grep -q -- "--- PASS: TestSVPPPropertyEquivalence" "$out" \
	|| fail "no PASS for TestSVPPPropertyEquivalence"

# Both live training runs (one chunk per stage, then two) must verify every step.
n=$(grep -c "done: pipelined training matches sequential execution" "$out") || true
[ "$n" -eq 2 ] || fail "expected 2 verified training runs, saw $n"

# Go's %.2g prints tiny diffs as 0 or with a two-digit exponent (1.2e-07).
if grep "max grad diff" "$out" | grep -qv "max grad diff \(0\|[0-9.]*e-\(0[5-9]\|[1-9][0-9]\)\)"; then
	fail "a training step reported a gradient diff above 1e-5"
fi

echo "E0 check passed: transcript matches e0_expected.md"
