#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark: the working tree against
# a parent revision, on one host, in alternating order. Run it from the
# repository root:
#
#   bash scripts/abpair.sh PARENT N BENCHMARK-ARGS...
#   bash scripts/abpair.sh a97d277 10 --workload service --seed 1 --seconds 25 --trace 0
#
# PARENT is checked out in a git worktree under .bench_build/, removed
# at exit. Each side runs `bash swpfperf/run.sh BENCHMARK-ARGS` in its
# own tree N times; pair i runs the parent first when i is odd and the
# working tree first when i is even. For every end-to-end metric in
# BENCHMARK.json the script prints each side's median, Q1, Q3 and IQR
# (quartiles interpolated between order statistics), the change/parent
# ratio of the medians and in how many pairs the change was better, by
# the metric's "better" direction. It also prints each side's failed
# over attempted units of work, the stats_sha256 digests the runs
# reported, and the host. Every run's output is kept in
# .bench_build/abpair/.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash scripts/abpair.sh PARENT N BENCHMARK-ARGS..." >&2
	exit 2
fi
rev=$1 n=$2
shift 2
case $n in '' | *[!0-9]* | 0)
	echo "abpair.sh: N must be a positive integer, got '$n'" >&2
	exit 2
	;;
esac
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/swpfperf/run.sh" ]; then
	echo "abpair.sh: run from the repository root (no BENCHMARK.json or swpfperf/run.sh here)" >&2
	exit 1
fi
parent=$(git rev-parse --verify "$rev^{commit}")
change=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change="$change + uncommitted changes"
fi

out="$root/.bench_build/abpair"
tree="$root/.bench_build/abpair-parent"
cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$out"
rm -f "$out"/*.out "$out"/*.err
git worktree add --quiet --detach "$tree" "$parent"

# run SIDE DIR PAIR ARGS...: one benchmark run in DIR; its output lands
# in $out/SIDE-PAIR.out whether or not it succeeds.
run() {
	local side=$1 dir=$2 pair=$3
	shift 3
	echo "pair $pair of $n: $side" >&2
	if ! (cd "$dir" && bash swpfperf/run.sh "$@") >"$out/$side-$pair.out" 2>"$out/$side-$pair.err"; then
		echo "pair $pair: the $side run failed; see .bench_build/abpair/$side-$pair.err" >&2
	fi
}
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$tree" "$i" "$@"
		run change "$root" "$i" "$@"
	else
		run change "$root" "$i" "$@"
		run parent "$tree" "$i" "$@"
	fi
done

echo
echo "host: $(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo), nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset}, $(go version)"
echo "parent: $parent"
echo "change: $change"
echo "benchmark: bash swpfperf/run.sh $*"
echo "pairs: $n (odd pairs ran the parent first)"
echo

# One awk pass: the end-to-end metrics and their directions from
# BENCHMARK.json, then the last (JSON) line and the stats_sha256 lines
# of every run's output.
awk -v n="$n" -v out="$out" '
/"end_to_end"/ { e2e = 1; next }
e2e && /^[[:space:]]*\]/ { e2e = 0 }
e2e && /"name"/ { name = $0; sub(/.*"name":[[:space:]]*"/, "", name); sub(/".*/, "", name); names[++m] = name }
e2e && /"better"/ { b = $0; sub(/.*"better":[[:space:]]*"/, "", b); sub(/".*/, "", b); better[name] = b }

# field returns the number under key in a JSON result line (a metric
# object'"'"'s value, or a plain number), or "" when the key is absent.
function field(line, key, s) {
	if (!match(line, "\"" key "\":(\\{\"value\":)?-?[0-9][0-9.eE+-]*")) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s
}
# quantile of the ascending x[1..k], interpolated between order
# statistics.
function quantile(x, k, q, h, lo) {
	h = (k - 1) * q + 1
	lo = int(h)
	return lo >= k ? x[k] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
}
function isort(x, k, i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
}
END {
	split("parent change", sides, " ")
	for (i = 1; i <= n; i++) for (s = 1; s <= 2; s++) {
		side = sides[s]; f = out "/" side "-" i ".out"; last = ""
		while ((getline line < f) > 0) {
			if (line ~ /^\{/) last = line
			else if (line ~ /^stats_sha256 /) {
				split(line, w, " ")
				if (!((side, w[2]) in seen)) { seen[side, w[2]] = 1; digests[side] = digests[side] " " w[2] }
			}
		}
		close(f)
		if (last == "") { noresult[side]++; continue }
		attempted[side] += field(last, "attempted")
		failed[side] += field(last, "failed")
		for (j = 1; j <= m; j++) if ((v = field(last, names[j])) != "") val[side, names[j], i] = v + 0
	}
	printf "%-12s %-6s %12s %12s %12s %12s  %s\n", "metric", "side", "median", "Q1", "Q3", "IQR", "change/parent"
	for (j = 1; j <= m; j++) {
		name = names[j]
		for (s = 1; s <= 2; s++) {
			side = sides[s]; k = 0
			for (i = 1; i <= n; i++) if ((side, name, i) in val) x[++k] = val[side, name, i]
			if (k == 0) { printf "%-12s %-6s %12s\n", name, side, "no result"; med[side] = ""; continue }
			isort(x, k)
			med[side] = quantile(x, k, 0.5); q1 = quantile(x, k, 0.25); q3 = quantile(x, k, 0.75)
			printf "%-12s %-6s %12.6g %12.6g %12.6g %12.6g", name, side, med[side], q1, q3, q3 - q1
			if (side == "parent") { printf "\n"; continue }
			wins = pairs = 0
			for (i = 1; i <= n; i++) {
				if (!(("parent", name, i) in val) || !(("change", name, i) in val)) continue
				pairs++
				p = val["parent", name, i]; c = val["change", name, i]
				if (better[name] == "lower" ? c < p : c > p) wins++
			}
			ratio = med["parent"] == "" || med["parent"] == 0 ? "n/a" : sprintf("%.4f", med["change"] / med["parent"])
			printf "  %s, better (%s) in %d of %d pairs\n", ratio, better[name], wins, pairs
		}
	}
	print ""
	for (s = 1; s <= 2; s++) {
		side = sides[s]
		printf "%s: failed %d of %d attempted; %d of %d runs gave no result; stats_sha256%s\n",
			side, failed[side], attempted[side], noresult[side], n, digests[side] == "" ? " none" : digests[side]
	}
}
' "$root/BENCHMARK.json"
