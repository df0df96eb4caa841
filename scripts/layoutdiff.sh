#!/bin/sh
# Lists the code-layout moves between two builds of the end-to-end
# benchmark: every main.* and mepipe/* text symbol whose address mod 64
# differs between the binary built at <rev> and the one built from the
# working tree. Hot loops such as the benchmark's calibration GEMM run at
# different speeds on and off a 64-byte boundary, so a change that moves
# them can shift calibrated results without touching their code.
#
#   sh scripts/layoutdiff.sh <rev>      # or: make layout-diff BASE=<rev>
#
# <rev> is extracted with git archive into a temporary directory, which is
# removed on exit; the repository's worktree list is never touched. Both
# binaries are built the way benchmark/run.sh builds them; the script
# writes nothing under benchmark/. Each output line is
# "<symbol> <base address mod 64> <working-tree address mod 64>", and the
# last line counts them. Symbols present in only one binary are skipped.
set -eu
rev=${1:?usage: sh scripts/layoutdiff.sh <rev>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

build() {
	(cd "$1/benchmark" &&
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0 \
			go build -o "$2" .) >&2
}
build "$tmp/base" "$tmp/base.bin"
build "$root" "$tmp/head.bin"

# syms prints "<symbol> <address mod 64>" for the binary's main.* and
# mepipe/* text symbols, sorted by symbol.
syms() {
	go tool nm "$1" | awk '
		($2 == "T" || $2 == "t") && ($3 ~ /^main\./ || $3 ~ /^mepipe\//) {
			a = tolower($1)
			v = 16 * (index("0123456789abcdef", substr(a, length(a) - 1, 1)) - 1) + \
				index("0123456789abcdef", substr(a, length(a), 1)) - 1
			print $3, v % 64
		}' | LC_ALL=C sort -u -k1,1
}
syms "$tmp/base.bin" >"$tmp/base.syms"
syms "$tmp/head.bin" >"$tmp/head.syms"
LC_ALL=C join "$tmp/base.syms" "$tmp/head.syms" | awk '
	$2 != $3 { print; n++ }
	END { printf "%d main.* and mepipe/* text symbols moved mod 64\n", n }'
