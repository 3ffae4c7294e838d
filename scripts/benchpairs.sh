#!/usr/bin/env bash
# benchpairs.sh — compare two checkouts on one benchmark workload with
# alternating pairs of runs:
#
#   scripts/benchpairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SEED=1]
#
# Each pair runs `bash bench/run.sh --workload W --seed S --seconds 24
# --trace 0` in both checkouts, the parent first in odd pairs and the change
# first in even ones. Every run prints as one line: its six end-to-end
# metrics, its failed-operation count and its sim_digest. The summary gives,
# per metric, both sides' median with quartiles, the change/parent ratio of
# the medians, the number of pairs the change won (in the direction
# PARENT_DIR/BENCHMARK.json calls better), and whether every digest matched.
# Needs jq.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SEED=1]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 pairs=${4:-10} seed=${5:-1}

runs=$(mktemp)
trap 'rm -f "$runs" "$runs.out"' EXIT

# run SIDE DIR PAIR: one benchmark run, appended to $runs and printed. The
# benchmark's stdout is its report lines, then the result as one JSON line.
run() {
	local digest
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 24 --trace 0 >"$runs.out"
	digest=$(awk '$1 == "sim_digest" { print $NF }' "$runs.out")
	grep '^{' "$runs.out" | tail -n 1 |
		jq -c --arg side "$1" --argjson pair "$3" --arg digest "$digest" \
			'{pair: $pair, side: $side, failed, digest: $digest, m: (.metrics | map_values(.value))}' |
		tee -a "$runs" |
		jq -r '"pair \(.pair) \(.side)\tfailed \(.failed)\tdigest \(.digest)\t" +
			(.m | to_entries | map("\(.key) \(.value * 10000 | round / 10000)") | join("  "))'
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

jq -rs --slurpfile bench "$parent/BENCHMARK.json" --arg w "$workload" '
	# q($p): the $p-quantile, interpolated between the closest ranks.
	def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $lo
		| $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
	def r4: . * 10000 | round / 10000;
	def stat: "\(q(0.5) | r4) [\(q(0.25) | r4), \(q(0.75) | r4)]";
	(map(select(.side == "parent")) | sort_by(.pair)) as $p
	| (map(select(.side == "change")) | sort_by(.pair)) as $c
	| "\n\($w), \($p | length) pairs: median [q1, q3] parent -> change, change/parent, change wins",
	($bench[0].end_to_end[] as $e
		| ($p | map(.m[$e.name])) as $pv | ($c | map(.m[$e.name])) as $cv
		| ([range($pv | length) | select(if $e.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length) as $wins
		| "\($e.name) (\($e.better) is better): \($pv | stat) -> \($cv | stat), \(($cv | q(0.5)) / ($pv | q(0.5)) | r4)x, \($wins)/\($pv | length)"),
	"failed operations: parent \($p | map(.failed) | add), change \($c | map(.failed) | add)",
	"sim_digest: \(if (map(.digest) | unique | length) == 1 and .[0].digest != "" then "all \(length) runs \(.[0].digest)" else "MISMATCH \(map(.digest) | unique)" end)"
' "$runs"
