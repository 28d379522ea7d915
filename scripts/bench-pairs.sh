#!/usr/bin/env bash
# Alternated parent/change pairs of the end-to-end benchmark, the
# standing rule for every PR that is not a [benchmark] PR:
#
#   make bench-pairs PARENT=<rev> [PAIRS=10] [BENCH_ARGS='-seconds 10']
#
# The parent revision is exported to .bench_build/parent (bench/ and
# BENCHMARK.json are copied over it when it predates them), each pair
# runs `bash bench/run.sh -all -seed <pair> -out` on both sides —
# parent first on odd pairs, change first on even ones — and the
# benchmark's own -check prints the verdicts of parent.json against
# change.json. The change is the working tree, committed or not.
set -euo pipefail
parent_rev="${1:?usage: bench-pairs.sh <parent-rev> [bench args...]}"
shift
pairs="${PAIRS:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
parent="$out/parent"
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$parent"
[ -f "$parent/bench/run.sh" ] || cp -r "$root/bench" "$parent/bench"
[ -f "$parent/BENCHMARK.json" ] || cp "$root/BENCHMARK.json" "$parent/BENCHMARK.json"
rm -f "$out/parent.json" "$out/change.json"
side() { # side <checkout> <result file> <seed> [bench args...]
	local dir="$1" file="$2" seed="$3"
	shift 3
	(cd "$dir" && bash bench/run.sh -all -seed "$seed" -out "$file" "$@")
}
for ((i = 1; i <= pairs; i++)); do
	echo "== pair $i of $pairs"
	if ((i % 2)); then
		side "$parent" "$out/parent.json" "$i" "$@"
		side "$root" "$out/change.json" "$i" "$@"
	else
		side "$root" "$out/change.json" "$i" "$@"
		side "$parent" "$out/parent.json" "$i" "$@"
	fi
done
cd "$root" && bash bench/run.sh -check "$out/parent.json" "$out/change.json"
