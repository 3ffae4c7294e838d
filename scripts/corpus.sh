#!/usr/bin/env bash
# corpus.sh <outdir> [group...] — write the deterministic export corpus.
#
# Every file under <outdir> is a pure function of the committed source:
# byte-identical at any WORKERS and on either ENGINE. CI runs it at 1 and
# 8 workers (and under ENGINE=interp) and `diff -r`s the directories; run
# on two commits, the same diff is the refactoring evidence ("if the corpus
# does not change, behaviour did not change").
#
# Groups, one subdirectory each (default: all):
#   chaos      PC3D fleet under the bare -chaos preset, the same under
#              frequent runtime crashes (supervisor reap/restart), eight
#              crash-heavy chaos-only seeds (crash re-placement with
#              migration off), figchaos
#   migration  contention-driven live migration, figmigrate
#   soak       chaos attacking the migration machinery, figchaosmigrate
#   slo        crash-heavy migration soak under the SLO engine, an SLO-only
#              run with crashes (no migration), figslo
#   paper      every cmd/experiments artifact (Table I-Figure 18, fig17sim,
#              figtimeline, figspans and the four fleet figures) from one
#              bench-scale run sharing one memoising Runner: the single-server
#              PC3D/ReQoS policy layer the fleet groups barely touch
#
# Environment: WORKERS (default 1), ENGINE (default: the machine default).
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 <outdir> [chaos|migration|soak|slo|paper]..." >&2
	exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
shift
groups=("$@")
[ ${#groups[@]} -gt 0 ] || groups=(chaos migration soak slo paper)

root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -C "$root" -o "$bin/" ./cmd/fleet ./cmd/experiments

common=(-workers "${WORKERS:-1}")
[ -z "${ENGINE:-}" ] || common+=(-engine "$ENGINE")

# fleet <console-file> <flags...>: one fleet run; the console report is kept
# minus its volatile lines (worker count, wall clock).
fleet() {
	local txt=$1
	shift
	"$bin/fleet" "$@" "${common[@]}" |
		grep -v -e '^fleet:' -e 'simulated in' >"$txt"
}

# fig <key>: one cmd/experiments artifact at bench scale.
fig() {
	"$bin/experiments" -fig "$1" -scale bench "${common[@]}" |
		grep -v 'done in' >"$1.txt"
}

# The diurnal 12-server fleet the migration, soak and SLO runs share.
diurnal=(-servers 12 -instances 4 -mix WL1 -system none -policy round-robin
	-seed 42 -solo 0.5 -settle 2 -diurnal 60 -phase-spread 60)
migrate=(-migrate -contend-q 0.75 -migrate-budget 2)

for g in "${groups[@]}"; do
	mkdir -p "$out/$g"
	cd "$out/$g"
	case $g in
	chaos)
		fleet w.txt -servers 6 -instances 4 -mix WL1 -policy round-robin \
			-seed 42 -solo 0.5 -settle 1.5 -measure 0.5 -max-sites 3 -chaos \
			-metrics w.prom -trace w.jsonl -spans w.trace.json -profile w.folded
		fleet rt.txt -servers 4 -mix WL1 -policy round-robin -seed 42 -solo 0.5 \
			-settle 3 -measure 1 -max-sites 3 -chaos -runtime-mttf 0.5 \
			-metrics rt.prom -trace rt.jsonl -spans rt.trace.json
		for seed in 1 2 3 4 5 6 7 8; do
			fleet "crash$seed.txt" -servers 8 -instances 5 -mix WL1 -system none \
				-policy round-robin -seed "$seed" -solo 0.3 -settle 0.5 -measure 0.5 \
				-crash-rate 0.6 -restart-delay 0.25 \
				-metrics "crash$seed.prom" -trace "crash$seed.jsonl"
		done
		fig figchaos
		;;
	migration)
		fleet m.txt "${diurnal[@]}" -measure 0.5 "${migrate[@]}" -contend-window 0.5 \
			-metrics m.prom -trace m.jsonl -contend-out m.contend.json
		fig figmigrate
		;;
	soak)
		fleet s.txt "${diurnal[@]}" -measure 0.5 "${migrate[@]}" -contend-window 0.5 \
			-crash-rate 0.3 -restart-delay 0.25 \
			-move-detach-fail 0.15 -move-land-fail 0.7 -move-stall-max 0.02 \
			-sample-corrupt 0.05 -sample-stale 0.05 \
			-migrate-retries 2 -breaker-k 2 -breaker-cooldown 2 \
			-metrics s.prom -trace s.jsonl \
			-contend-out s.contend.json -audit-out s.audit.json
		fig figchaosmigrate
		;;
	slo)
		fleet slo.txt "${diurnal[@]}" -measure 2 "${migrate[@]}" -contend-window 0.25 \
			-crash-rate 0.5 -restart-delay 0.25 -slo -slo-boost 1 \
			-alerts-out a.json -tsdb-out t.json -postmortem-dir pm
		fleet sloonly.txt "${diurnal[@]}" -measure 2 -slo -slo-window 0.25 \
			-crash-rate 0.5 -restart-delay 0.25 \
			-metrics sloonly.prom -trace sloonly.jsonl -alerts-out sloonly.a.json \
			-tsdb-out sloonly.t.json -postmortem-dir sloonly.pm
		fig figslo
		;;
	paper)
		"$bin/experiments" -scale bench "${common[@]}" |
			grep -v 'done in' >all.txt
		;;
	*)
		echo "corpus.sh: unknown group '$g'" >&2
		exit 2
		;;
	esac
done
