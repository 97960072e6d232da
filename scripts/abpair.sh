#!/usr/bin/env bash
# abpair.sh — paired A/B runs of the repository benchmark.
#
#   scripts/abpair.sh <rev> <workload> <N> [seed0]
#
# Runs N pairs of
#   bash benchmark/run.sh --workload <workload> --seed S --seconds 10 --trace 0
# one side on the committed files of <rev>, the other on the working tree,
# and with each pair an A/A run: <rev> once more. Pair k (0-based) runs
# seed seed0+k on all three (seed0 defaults to 1), and the order of the
# three rotates from pair to pair, so a drift in the host's speed falls on
# every side alike. ABPAIR_SECONDS overrides the 10 host seconds per run.
#
# <rev> is extracted with git archive into a temporary directory (under
# TMPDIR) that is removed on exit: the same committed files a fresh
# checkout holds, and nothing registered in the repository's .git. Each
# side builds its own benchmark binary there, as benchmark/run.sh does.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles over the N runs, the relative change of the
# medians, the A/A floor, whether the change exceeds the base side's
# interquartile range, a verdict, and in how many of the N pairs the
# working tree did better. The floor is the smallest change the run can
# resolve at its N: the 90th percentile, over 2000 bootstrap resamples of
# the pairs, of the relative change between the medians of the two <rev>
# runs, which differ by noise alone. A change no larger than the floor
# reads "unresolved"; a larger one "better" or "worse". It exits non-zero
# if any run is incorrect: benchmark/run.sh fails or its result line does
# not read "correct":true.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <rev> <workload> <N> [seed0]" >&2
	exit 2
fi
rev=$1 workload=$2 n=$3 seed0=${4:-1}
seconds=${ABPAIR_SECONDS:-10}
commit=$(git rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
# The benchmark's Go cache leaves read-only files; make them removable.
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$commit" | tar -x -C "$tmp/base"

declare -A dir=([base]="$tmp/base" [change]="$PWD" [aa]="$tmp/base")
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)

# Build both binaries before the first measured run, so that no run pays
# for the other side's build. -h makes the harness print its usage and
# exit without running anything.
for side in base change; do
	bash "${dir[$side]}/benchmark/run.sh" -h >/dev/null 2>&1 || true
done

bad=0
run() { # run <side> <pair> <seed>
	local side=$1 k=$2 seed=$3 out="$tmp/$1.$2.out"
	if ! bash "${dir[$side]}/benchmark/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 >"$out" 2>"$out.err"; then
		echo "pair $k seed $seed $side: benchmark/run.sh failed (see below)" >&2
		tail -n 5 "$out" "$out.err" >&2
		bad=1
	fi
	local line
	line=$(tail -n 1 "$out")
	if [ "$(jq -r '.correct' <<<"$line" 2>/dev/null)" != true ]; then
		echo "pair $k seed $seed $side: incorrect run: $line" >&2
		bad=1
	fi
	while read -r m _; do
		jq -r --arg m "$m" '.metrics[$m].value // empty' <<<"$line" 2>/dev/null |
			sed "s/^/$k /" >>"$tmp/$side.$m"
	done <<<"$metrics"
}

# The A/A side "aa" is <rev> again. Over three pairs every side runs
# once in each position.
orders=("base change aa" "change aa base" "aa base change")
for ((k = 0; k < n; k++)); do
	seed=$((seed0 + k))
	order=${orders[k % 3]}
	for side in $order; do
		run "$side" "$k" "$seed"
	done
	echo "pair $((k + 1))/$n (seed $seed, order $order) done" >&2
done

echo "$workload: $n pairs, $rev ($(git rev-parse --short "$commit")) against the working tree, seeds $seed0..$((seed0 + n - 1)), ${seconds}s a run"
printf '%-18s %-36s %-36s %9s %8s %5s %-10s %6s\n' metric "base median [q1 q3]" "change median [q1 q3]" change "A/A" ">IQR" verdict wins
while read -r m better; do
	touch "$tmp/base.$m" "$tmp/change.$m" "$tmp/aa.$m"
	awk -v m="$m" -v better="$better" -v n="$n" '
		function q(a, c, p,    h, lo) { # quantile p of sorted a[1..c], linear
			h = (c - 1) * p + 1; lo = int(h)
			return lo >= c ? a[c] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function sort(a, c,    i, j, t) {
			for (i = 2; i <= c; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		# aafloor: the 90th percentile of |median(aa) - median(base)| /
		# median(base) over bootstrap resamples of the pairs both hold.
		function aafloor(    np, i, j, k, r, x, y, d, diffs, pk) {
			for (k in b) if (k in a) pk[++np] = k
			if (np == 0) return -1
			srand(1)
			for (r = 1; r <= 2000; r++) {
				for (i = 1; i <= np; i++) { j = pk[int(rand() * np) + 1]; x[i] = b[j]; y[i] = a[j] }
				sort(x, np); sort(y, np)
				d = q(x, np, .5)
				diffs[r] = d == 0 ? 0 : (q(y, np, .5) - d) / d
				if (diffs[r] < 0) diffs[r] = -diffs[r]
			}
			sort(diffs, 2000)
			return q(diffs, 2000, .9)
		}
		FILENAME == ARGV[1] { b[$1] = $2; bs[++nb] = $2; next }
		FILENAME == ARGV[2] { c[$1] = $2; cs[++nc] = $2; next }
		{ a[$1] = $2 }
		END {
			if (nb == 0 || nc == 0) { printf "%-18s no values\n", m; exit }
			sort(bs, nb); sort(cs, nc)
			bm = q(bs, nb, .5); cm = q(cs, nc, .5); iqr = q(bs, nb, .75) - q(bs, nb, .25)
			for (k in b) if (k in c) {
				if ((better == "higher" && c[k] > b[k]) || (better == "lower" && c[k] < b[k])) wins++
			}
			gap = cm - bm; if (gap < 0) gap = -gap
			rel = bm == 0 ? 0 : (cm - bm) / bm
			fl = aafloor()
			verdict = "unresolved"
			if (fl >= 0 && (rel > fl || -rel > fl))
				verdict = ((better == "higher") == (rel > 0)) ? "better" : "worse"
			printf "%-18s %-36s %-36s %+8.2f%% %7s %5s %-10s %3d/%d\n", m,
				sprintf("%.6g [%.6g %.6g]", bm, q(bs, nb, .25), q(bs, nb, .75)),
				sprintf("%.6g [%.6g %.6g]", cm, q(cs, nc, .25), q(cs, nc, .75)),
				100 * rel, (fl < 0 ? "n/a" : sprintf("%.2f%%", 100 * fl)),
				(gap > iqr ? "yes" : "no"), verdict, wins, n
		}' "$tmp/base.$m" "$tmp/change.$m" "$tmp/aa.$m"
done <<<"$metrics"

if ((bad)); then
	echo "abpair: at least one run was incorrect" >&2
	exit 1
fi
