#!/usr/bin/env bash
# Paired A/B of two builds of this benchmark (binA = parent, binB =
# change), the by-hand method of PR 8 made a tool:
#
#   git stash / checkout the parent;  (cd bench && go build -o /tmp/benchA .)
#   back to the change;               (cd bench && go build -o /tmp/benchB .)
#   bench/ab.sh /tmp/benchA /tmp/benchB
#
# Each pair runs the two binaries back to back as separate processes on
# the same seed, alternating which side goes first; the seed changes
# from pair to pair. Runs are appended to out/ab-A.json and
# out/ab-B.json and judged by `bench -compare` (gain only at >= 9/10
# wins and a median gap beyond the parent's quartile distance).
#
#   PAIRS=10 SECONDS_PER_RUN=19 WORKLOADS="figures-cold large-n" bench/ab.sh A B
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: $0 <binA> <binB>" >&2
	exit 2
fi
binA="$(realpath "$1")" binB="$(realpath "$2")"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
pairs="${PAIRS:-10}" seconds="${SECONDS_PER_RUN:-19}"
workloads="${WORKLOADS:-figures-cold figures-warm replicas-cold large-n simd-warm fleet-cold}"
mkdir -p "$here/out"
: >"$here/out/ab-A.json"
: >"$here/out/ab-B.json"

one() { # side binary workload seed
	local line
	line="$("$2" -workload "$3" -seed "$4" -seconds "$seconds" -trace 0 -out "$here/out" | tail -n 1)"
	printf '{"workload":"%s","result":%s}\n' "$3" "$line" >>"$here/out/ab-$1.json"
}

for w in $workloads; do
	for ((p = 1; p <= pairs; p++)); do
		seed=$((1995 + p))
		if ((p % 2)); then
			one A "$binA" "$w" "$seed"
			one B "$binB" "$w" "$seed"
		else
			one B "$binB" "$w" "$seed"
			one A "$binA" "$w" "$seed"
		fi
		echo "$w: pair $p/$pairs done" >&2
	done
done
cd "$here" && "$binB" -compare out/ab-A.json out/ab-B.json
