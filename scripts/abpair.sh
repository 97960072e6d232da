#!/usr/bin/env bash
# abpair.sh — paired A/B runs of the repository benchmark.
#
#   scripts/abpair.sh <rev> <workload> <N> [seed0]
#
# Runs N pairs of
#   bash benchmark/run.sh --workload <workload> --seed S --seconds 10 --trace 0
# one side on the committed files of <rev>, the other on the working tree.
# Pair k (0-based) runs seed seed0+k on both sides (seed0 defaults to 1),
# and which side runs first flips from pair to pair, so a drift in the
# host's speed falls on both sides alike. ABPAIR_SECONDS overrides the 10
# host seconds per run.
#
# <rev> is extracted with git archive into a temporary directory (under
# TMPDIR) that is removed on exit: the same committed files a fresh
# checkout holds, and nothing registered in the repository's .git. Each
# side builds its own benchmark binary there, as benchmark/run.sh does.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles over the N runs, the relative change of the
# medians, whether that change exceeds the base side's interquartile
# range, and in how many of the N pairs the working tree did better. It
# exits non-zero if any run is incorrect: benchmark/run.sh fails or its
# result line does not read "correct":true.
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

declare -A dir=([base]="$tmp/base" [change]="$PWD")
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

for ((k = 0; k < n; k++)); do
	seed=$((seed0 + k))
	if ((k % 2 == 0)); then order="base change"; else order="change base"; fi
	for side in $order; do
		run "$side" "$k" "$seed"
	done
	echo "pair $((k + 1))/$n (seed $seed, $order first) done" >&2
done

echo "$workload: $n pairs, $rev ($(git rev-parse --short "$commit")) against the working tree, seeds $seed0..$((seed0 + n - 1)), ${seconds}s a run"
printf '%-18s %-36s %-36s %9s %6s %6s\n' metric "base median [q1 q3]" "change median [q1 q3]" change ">IQR" wins
while read -r m better; do
	touch "$tmp/base.$m" "$tmp/change.$m"
	awk -v m="$m" -v better="$better" -v n="$n" '
		function q(a, c, p,    h, lo) { # quantile p of sorted a[1..c], linear
			h = (c - 1) * p + 1; lo = int(h)
			return lo >= c ? a[c] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function sort(a, c,    i, j, t) {
			for (i = 2; i <= c; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		FILENAME == ARGV[1] { b[$1] = $2; bs[++nb] = $2; next }
		{ c[$1] = $2; cs[++nc] = $2 }
		END {
			if (nb == 0 || nc == 0) { printf "%-18s no values\n", m; exit }
			sort(bs, nb); sort(cs, nc)
			bm = q(bs, nb, .5); cm = q(cs, nc, .5); iqr = q(bs, nb, .75) - q(bs, nb, .25)
			for (k in b) if (k in c) {
				if ((better == "higher" && c[k] > b[k]) || (better == "lower" && c[k] < b[k])) wins++
			}
			gap = cm - bm; if (gap < 0) gap = -gap
			printf "%-18s %-36s %-36s %+8.1f%% %6s %3d/%d\n", m,
				sprintf("%.6g [%.6g %.6g]", bm, q(bs, nb, .25), q(bs, nb, .75)),
				sprintf("%.6g [%.6g %.6g]", cm, q(cs, nc, .25), q(cs, nc, .75)),
				(bm == 0 ? 0 : 100 * (cm - bm) / bm), (gap > iqr ? "yes" : "no"), wins, n
		}' "$tmp/base.$m" "$tmp/change.$m"
done <<<"$metrics"

if ((bad)); then
	echo "abpair: at least one run was incorrect" >&2
	exit 1
fi
