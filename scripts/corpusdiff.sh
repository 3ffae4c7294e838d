#!/usr/bin/env bash
# corpusdiff.sh — the "no behaviour change" check for a refactor as one
# command:
#
#   scripts/corpusdiff.sh PARENT_DIR CHANGE_DIR [GROUP...]
#
# Runs each checkout's own scripts/corpus.sh (same GROUPs, default all) into
# a fresh directory under $TMPDIR, honouring WORKERS and ENGINE, and lists
# every corpus file that differs or exists on one side only. Then prints the
# two checkouts' scripts/size.sh tables side by side with the per-package
# delta. Exits 1 when any corpus file differs (the two corpora are then kept
# for inspection and their directory printed), 0 when all are identical.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR [GROUP...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2

out=$(mktemp -d)
bash "$parent/scripts/corpus.sh" "$out/parent" "$@"
bash "$change/scripts/corpus.sh" "$out/change" "$@"

files=$(cd "$out/change" && find . -type f | wc -l)
status=0
if (cd "$out" && diff -rq parent change); then
	echo "corpus: all $files files identical"
	rm -rf "$out"
else
	echo "corpus: files differ (both corpora kept in $out)"
	status=1
fi

# size.sh prints "<lines>  <package>" rows ending with "<lines>  total".
echo
awk '
	FNR == NR { a[$2] = $1 }
	FNR != NR { b[$2] = $1 }
	$2 != "total" && !($2 in seen) { seen[$2] = 1; keys[n++] = $2 }
	END {
		printf "%7s %7s %7s  %s\n", "parent", "change", "delta", "package"
		keys[n++] = "total"
		for (i = 0; i < n; i++) {
			k = keys[i]
			printf "%7d %7d %+7d  %s\n", a[k], b[k], b[k] - a[k], k
		}
	}' <(bash "$parent/scripts/size.sh") <(bash "$change/scripts/size.sh")
exit $status
