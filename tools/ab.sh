#!/usr/bin/env bash
# Same-session A/B of `mmt serve`: a parent revision against a snapshot
# of the working tree, on one servebench workload, in interleaved pairs.
#
#   bash tools/ab.sh <parent-rev> <workload> <pairs> [seconds]
#   bash tools/ab.sh HEAD~1 repair_sat_fm10 5
#
# The parent is exported with `git archive` into
# ${TMPDIR:-/tmp}/mmt-ab-<commit>/ (kept, so a second run against the
# same parent skips the export and most of the build) and built into a
# target directory of its own. Before anything is built, the working
# tree's tracked and unignored files are copied, with their mtimes, into
# ${TMPDIR:-/tmp}/mmt-ab-change/tree, and the change side is built and
# run from that copy, into the target directory beside it (kept, so
# unchanged crates stay built). An edit made to the working tree while
# the script runs therefore never reaches the change side, although
# servebench/run.sh rebuilds before every run. Pair i runs seed i on both
# sides for `seconds` (default 20) with `--trace 0`: the parent runs
# first in odd pairs, the change in even ones. Then, for each
# end-to-end metric of the result line, the script prints the median
# of each side over the pairs, the parent's interquartile range, in how
# many pairs the change read lower, and the change's median relative to
# the parent's beside the metric's `bound` in the parent's
# BENCHMARK.json. It marks WORSE a metric whose median moved against its
# `better` direction by more than that bound, and a `failed` sum above
# the parent's: what the benchmark's no-regression rule refuses. After
# the pairs, each side makes one traced run (`--trace 1`, seed
# pairs + 1), and the script prints every metric the two traced runs
# print, one `<workload> <metric> <value> <unit> n=<count>` line each
# (the per-layer ones included, not only those of the result line),
# side by side with its unit and the change's relative difference. It
# marks whether each metric counted in `count` or `bytes` (allocations,
# per-edit counts, grounding sizes, repair costs, answer bytes) is the
# same on both sides or DIFFERS: where a saving appears, and that the
# repairs and answers kept their size. The raw output of every run stays
# in the results directory it names.
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
change="${TMPDIR:-/tmp}/mmt-ab-change"
rm -rf "$change/tree"
mkdir -p "$change/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do
		# A tracked file deleted from the working tree is not copied.
		if [ -e "$root/$f" ] || [ -L "$root/$f" ]; then printf '%s\0' "$f"; fi
	done |
	tar -C "$root" --null -T - -cf - | tar -x -C "$change/tree"
echo "change: snapshot of $root at $(git -C "$root" rev-parse --short=12 HEAD)," \
	"$(find "$change/tree" -type f | wc -l) files, in $change/tree; uncommitted:" >&2
git -C "$root" status --short >&2
results=$(mktemp -d "${TMPDIR:-/tmp}/mmt-ab-results.XXXXXX")

# side name, tree, target directory
sides=("parent $base/tree $base/target" "change $change/tree $change/target")

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

# traced <side>: one traced run of seed pairs + 1, each metric line it
# prints ("<workload> <metric> <value> <unit> n=<count>") kept as
# "<side> <metric> <value> <unit>" rows in $results/traced.
traced() {
	local name tree target out
	read -r name tree target <<<"${sides[$1]}"
	out="$results/$name-traced.out"
	echo "traced: $name" >&2
	CARGO_TARGET_DIR=$target bash "$tree/servebench/run.sh" --workload "$workload" \
		--seed "$((pairs + 1))" --seconds "$seconds" --trace 1 >"$out"
	awk -v side="$name" -v w="$workload" '$1 == w && NF == 5 && $5 ~ /^n=/ {
		print side, $2, $3, $4
	}' "$out" >>"$results/traced"
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

traced 0
traced 1

# Each end-to-end metric's gate, "<metric> <better> <bound>" per line,
# from the "end_to_end" list of the parent's BENCHMARK.json (none when it
# has no such file).
touch "$results/gates"
if [ -f "$base/tree/BENCHMARK.json" ]; then
	awk '
	# The value of "key" in one JSON object, quotes stripped.
	function field(obj, key,    v) {
		if (!match(obj, "\"" key "\"[ \t\n]*:[ \t\n]*(\"[^\"]*\"|[-+.0-9eE]+)"))
			return "-"
		v = substr(obj, RSTART, RLENGTH)
		sub(/^"[^"]*"[ \t\n]*:[ \t\n]*/, "", v)
		gsub(/"/, "", v)
		return v
	}
	{ json = json $0 "\n" }
	END {
		if (!match(json, /"end_to_end"[ \t\n]*:[ \t\n]*\[[^]]*\]/))
			exit
		list = substr(json, RSTART, RLENGTH)
		while (match(list, /[{][^}]*[}]/)) {
			obj = substr(list, RSTART, RLENGTH)
			list = substr(list, RSTART + RLENGTH)
			print field(obj, "name"), field(obj, "better"), field(obj, "bound")
		}
	}' "$base/tree/BENCHMARK.json" >"$results/gates"
fi

echo "# $workload: parent ${sha:0:12} vs snapshot $change/tree, $pairs pairs of ${seconds} s, results in $results"
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
# The gates file comes first: "<metric> <better> <bound>".
FILENAME ~ /gates$/ { better[$1] = $2; bound[$1] = $3; next }
{
	v[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
}
END {
	fmt = "%-18s %14s %14s %14s %8s %9s %7s  %s\n"
	printf fmt, "metric", "parent_median", "parent_iqr", "change_median", "lower", "change", "bound", "gate"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		if (m == "failed") {
			pf = cf = 0
			for (i = 1; i <= pairs; i++) { pf += v["parent", i, m]; cf += v["change", i, m] }
			printf fmt, m, pf, "(sum)", cf, "", "", "", (cf > pf ? "WORSE" : "ok")
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
		pm = quantile(p, pairs, 0.5)
		cm = quantile(c, pairs, 0.5)
		change = gate = "-"
		limit = ""
		if (pm != 0)
			change = sprintf("%+.1f%%", 100 * (cm - pm) / pm)
		if (m in better) {
			limit = sprintf("%g%%", 100 * bound[m])
			# How far the change moved the worse way, as a fraction of
			# the parent median (any move from a zero median is too far).
			worse = better[m] == "higher" ? pm - cm : cm - pm
			too_far = pm != 0 ? (worse / pm > bound[m] + 0) : (worse > 0)
			gate = too_far ? "WORSE" : "ok"
		}
		printf fmt, m, sprintf("%.6g", pm), sprintf("%.6g", quantile(p, pairs, 0.75) - quantile(p, pairs, 0.25)),
			sprintf("%.6g", cm), lower "/" pairs, change, limit, gate
	}
}' "$results/gates" "$results/rows"

echo "# $workload: one traced run per side (--trace 1, seed $((pairs + 1)))"
awk '
{
	v[$1, $2] = $3
	unit[$2] = $4
	if (!($2 in seen)) { seen[$2] = 1; order[++metrics] = $2 }
}
END {
	fmt = "%-34s %14s %14s %-6s %9s  %s\n"
	printf fmt, "metric", "parent", "change", "unit", "change", "count"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		p = (("parent", m) in v) ? v["parent", m] : "-"
		c = (("change", m) in v) ? v["change", m] : "-"
		change = p != "-" && c != "-" && p + 0 != 0 ? sprintf("%+.1f%%", 100 * (c - p) / p) : "-"
		count = ""
		if (unit[m] == "count" || unit[m] == "bytes")
			count = p == c ? "same" : "DIFFERS"
		printf fmt, m, p, c, unit[m], change, count
	}
}' "$results/traced"
