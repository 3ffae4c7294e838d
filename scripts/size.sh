#!/usr/bin/env bash
# size.sh — the ROADMAP's "Size" number as a command: non-test, non-blank,
# non-comment Go lines outside bench/, per top-level package and in total.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { cat "$@" | grep -v '^\s*$' | grep -vc '^\s*//' || true; }

total=0
while read -r dir; do
	mapfile -t files < <(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ ${#files[@]} -gt 0 ] || continue
	n=$(count "${files[@]}")
	printf '%7d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done < <(find . -type d ! -path './bench*' ! -path './.git*' | sort)
printf '%7d  total\n' "$total"
