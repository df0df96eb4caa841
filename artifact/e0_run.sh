#!/bin/sh
# E0 — functionality: pipelined execution is gradient-equivalent to
# sequential execution for every scheduler (the repo's pipeline test suite),
# then live training with per-step verification, at two pipeline shapes.
set -e
cd "$(dirname "$0")/.."
mkdir -p artifact/results
{
	go test -v -run 'TestEverySchedulerMatchesSequential|TestSVPPPropertyEquivalence' ./internal/pipeline/
	go run ./cmd/mepipe-train -steps 5 -verify
	go run ./cmd/mepipe-train -steps 3 -verify -vp 2
} 2>&1 | tee artifact/results/e0.txt
echo "E0 done; compare against artifact/e0_expected.md"
