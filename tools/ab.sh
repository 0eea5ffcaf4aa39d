#!/bin/sh
# Same-host comparison of the benchmark at a commit against the working
# tree, on one workload.
#
#   tools/ab.sh REV WORKLOAD
#
# REV is checked out as a detached git worktree under _build/ab/ and
# perfbench/main.exe is built in both trees. Each of 10 pairs runs both
# builds for BENCHMARK.json's run_seconds with the pair's number as the
# seed, alternating which side runs first, so that the host's drift
# falls on both alike. Every run's JSON line is appended to
# _build/ab/base.jsonl or _build/ab/change.jsonl, pair by pair. The
# summary gives, for each end-to-end metric of BENCHMARK.json, both
# sides' median and quartiles, the change's median over the base's, the
# pairs the change won (ties count for neither) and whether the medians
# differ by more than the base's interquartile range, reading which way
# is better from BENCHMARK.json. Exits 1 as soon as a run is not correct.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: tools/ab.sh REV WORKLOAD" >&2
  exit 2
fi
rev=$1
workload=$2
pairs=10

cd "$(dirname "$0")/.."
out=_build/ab
tree=$out/rev
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
  echo "ab: BENCHMARK.json gives no run_seconds" >&2
  exit 2
fi

mkdir -p "$out"
git worktree prune
if [ -e "$tree" ]; then git worktree remove --force "$tree"; fi
git worktree add --detach "$tree" "$rev" > /dev/null
trap 'git worktree remove --force "$tree"' EXIT

for dir in "$tree" .; do
  (cd "$dir" && dune build --root . --display quiet ./perfbench/main.exe)
done

: > "$out/base.jsonl"
: > "$out/change.jsonl"

# run SIDE DIR SEED
run() {
  line=$(cd "$2" && ./_build/default/perfbench/main.exe --workload "$workload" \
    --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
  printf '%s\n' "$line" >> "$out/$1.jsonl"
  case $line in
    *'"correct": true'*) ;;
    *)
      echo "ab: the $1 run with seed $3 is not correct: $line" >&2
      exit 1
      ;;
  esac
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$tree" "$i"
    run change . "$i"
  else
    run change . "$i"
    run base "$tree" "$i"
  fi
  echo "ab: pair $i of $pairs done" >&2
  i=$((i + 1))
done

# values FILE METRIC: the metric's value in each line of FILE.
values() {
  sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" "$1"
}

echo "$workload: $rev (base) against the working tree (change)," \
  "$pairs pairs of ${seconds} s, seeds 1-$pairs"
printf '%-20s %-6s %-36s %-36s %8s %6s %s\n' metric better \
  "base median [q1, q3]" "change median [q1, q3]" change/base wins "gap>IQR"
awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
  e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  e && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json |
while read -r metric better; do
  values "$out/base.jsonl" "$metric" > "$out/base.values"
  values "$out/change.jsonl" "$metric" > "$out/change.values"
  paste "$out/base.values" "$out/change.values" |
  awk -v metric="$metric" -v better="$better" '
    function sort(a, n,   i, j, v) {
      for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
      }
    }
    # The p-quantile of sorted a[1..n], interpolating between ranks.
    function q(a, n, p,   h, lo) {
      h = (n - 1) * p + 1
      lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function cell(a, n) {
      return sprintf("%.6g [%.6g, %.6g]", q(a, n, 0.5), q(a, n, 0.25),
        q(a, n, 0.75))
    }
    {
      b[NR] = $1 + 0
      c[NR] = $2 + 0
      if (better == "higher" ? c[NR] > b[NR] : c[NR] < b[NR]) wins++
    }
    END {
      n = NR
      sort(b, n)
      sort(c, n)
      mb = q(b, n, 0.5)
      mc = q(c, n, 0.5)
      gap = mc > mb ? mc - mb : mb - mc
      wide = (gap > q(b, n, 0.75) - q(b, n, 0.25)) ? "yes" : "no"
      printf "%-20s %-6s %-36s %-36s %8.3f %3d/%-2d %s\n", metric, better,
        cell(b, n), cell(c, n), (mb == 0 ? 0 : mc / mb), wins, n, wide
    }'
done
rm -f "$out/base.values" "$out/change.values"
