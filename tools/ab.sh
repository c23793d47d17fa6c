#!/usr/bin/env bash
# Same-session A/B of `mmt serve`: a parent revision against the working
# tree, on one servebench workload, in interleaved pairs.
#
#   bash tools/ab.sh <parent-rev> <workload> <pairs> [seconds]
#   bash tools/ab.sh HEAD~1 repair_sat_fm10 5
#
# The parent is exported with `git archive` into
# ${TMPDIR:-/tmp}/mmt-ab-<commit>/ (kept, so a second run against the
# same parent skips the export and most of the build) and built into a
# target directory of its own; the working tree builds into
# `.bench_build/`, servebench's default. Pair i runs seed i on both
# sides for `seconds` (default 20) with `--trace 0`: the parent runs
# first in odd pairs, the change in even ones. Then, for each
# end-to-end metric of the result line, the script prints the median
# of each side over the pairs, the parent's interquartile range, and in
# how many pairs the change read lower; `failed` is summed. The raw
# output of every run stays in the results directory it names.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bash tools/ab.sh <parent-rev> <workload> <pairs> [seconds]" >&2
	exit 2
fi
rev=$1
workload=$2
pairs=$3
seconds=${4:-20}
case "$pairs" in
'' | *[!0-9]* | 0)
	echo "ab.sh: <pairs> must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base="${TMPDIR:-/tmp}/mmt-ab-$sha"
if [ ! -f "$base/exported" ]; then
	rm -rf "$base"
	mkdir -p "$base/tree"
	git -C "$root" archive "$sha" | tar -x -C "$base/tree"
	touch "$base/exported"
fi
results=$(mktemp -d "${TMPDIR:-/tmp}/mmt-ab-results.XXXXXX")

# side name, tree, target directory
sides=("parent $base/tree $base/target" "change $root $root/.bench_build")

# Builds what servebench/run.sh builds, so no run pays for compiling.
for s in "${sides[@]}"; do
	read -r name tree target <<<"$s"
	echo "building $name ($tree)" >&2
	CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
		--manifest-path "$tree/Cargo.toml" -p mmt-cli --bin mmt
	CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
		--manifest-path "$tree/servebench/Cargo.toml"
done

# run <side> <pair>: one servebench run, its result line kept as
# "<side> <pair> <metric> <value>" rows in $results/rows.
run() {
	local name tree target out
	read -r name tree target <<<"${sides[$1]}"
	out="$results/$name-$2.out"
	echo "pair $2: $name" >&2
	CARGO_TARGET_DIR=$target bash "$tree/servebench/run.sh" --workload "$workload" \
		--seed "$2" --seconds "$seconds" --trace 0 >"$out"
	tail -n 1 "$out" |
		grep -o '"[a-z0-9_]*": {"value": [^,}]*' |
		sed 's/^"\([a-z0-9_]*\)": {"value": \(.*\)$/\1 \2/' |
		while read -r metric value; do
			echo "$name $2 $metric $value"
		done >>"$results/rows"
	echo "$name $2 failed $(tail -n 1 "$out" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')" \
		>>"$results/rows"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run 0 "$i"
		run 1 "$i"
	else
		run 1 "$i"
		run 0 "$i"
	fi
done

echo "# $workload: parent ${sha:0:12} vs working tree, $pairs pairs of ${seconds} s, results in $results"
awk -v pairs="$pairs" '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
}
# Quantile q of the sorted a[1..n], interpolating between ranks.
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
	v[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
}
END {
	printf "%-18s %14s %14s %14s %8s\n", "metric", "parent_median", "parent_iqr", "change_median", "lower"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		if (m == "failed") {
			pf = cf = 0
			for (i = 1; i <= pairs; i++) { pf += v["parent", i, m]; cf += v["change", i, m] }
			printf "%-18s %14d %14s %14d %8s\n", m, pf, "(sum)", cf, ""
			continue
		}
		lower = 0
		for (i = 1; i <= pairs; i++) {
			p[i] = v["parent", i, m] + 0
			c[i] = v["change", i, m] + 0
			if (c[i] < p[i]) lower++
		}
		sort(p, pairs)
		sort(c, pairs)
		printf "%-18s %14.6g %14.6g %14.6g %8s\n", m, quantile(p, pairs, 0.5),
			quantile(p, pairs, 0.75) - quantile(p, pairs, 0.25), quantile(c, pairs, 0.5),
			lower "/" pairs
	}
}' "$results/rows"
