#!/bin/sh
# The one-command local CI gate: build, run every test suite, and (when
# the tool and a profile are available) check formatting.
#
#   tools/check.sh
#
# DEVIL_QCHECK_COUNT can be exported first to deepen the QCheck soaks.
set -e

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# The compiled access plans at their acceptance depth (DESIGN.md §9):
# 500 random op sequences per spec against the interpreter, where
# `dune runtest` runs the default 60.
echo "== plan acceptance depth =="
DEVIL_QCHECK_COUNT=500 dune build @plan --force

# The observability properties at the same depth: the trace store
# against its list model and metric handles against names alone.
echo "== observability acceptance depth =="
DEVIL_QCHECK_COUNT=500 dune build @obs --force

# A fast end-to-end pass over the benchmark pipeline: run every
# bechamel workload once on both engines (--smoke) — the run evaluates
# its own gates and exits 1 on a violation — then re-check the
# artifact offline. Every committed BENCH_*.json is re-checked against
# the gates its suite declares today (DESIGN.md §17).
echo "== bench smoke =="
dune exec bench/main.exe -- benchjson --smoke --out _build/bench_smoke.json \
  > /dev/null
dune exec tools/benchcheck/benchcheck.exe -- _build/bench_smoke.json
dune exec tools/benchcheck/benchcheck.exe -- BENCH_*.json

# Observability gates (ISSUE 4): the fault campaign's aggregated spec
# coverage must stay high on the two drivers whose workloads claim
# full register reach, and a recorded fault-free trial must replay to
# a byte-identical trace (an empty tracetool diff).
echo "== coverage + replay gates =="
EXPORT_DIR=_build/faultcamp_export
rm -rf "$EXPORT_DIR" && mkdir -p "$EXPORT_DIR"
DEVIL_FAULTCAMP_EXPORT="$EXPORT_DIR" \
  dune exec bench/main.exe -- faultcamp > _build/faultcamp_smoke.out
for dev in ide gfx; do
  line=$(grep "^coverage $dev " _build/faultcamp_smoke.out)
  pct=$(printf '%s\n' "$line" | sed -n 's/.*registers [0-9]*\/[0-9]* (\([0-9]*\)\(\.[0-9]*\)\?%).*/\1/p')
  if [ -z "$pct" ] || [ "$pct" -lt 90 ]; then
    echo "FAIL: $dev register coverage below 90%: $line"
    exit 1
  fi
  echo "ok: $line"
done
dune exec tools/tracetool/tracetool.exe -- diff \
  "$EXPORT_DIR/ide-read-smoke.recorded.jsonl" \
  "$EXPORT_DIR/ide-read-smoke.replayed.jsonl"
echo "ok: recorded and replayed smoke traces are identical"

# Span-profiler gates (ISSUE 5): the disabled profiler must be
# invisible (the dedicated test suite checks Bus.observed identity, the
# QCheck transparency property and the exporters' formats), the
# perf-regression gate must pass on the committed trajectory (test_cli
# checks that it fails on the synthetic regressed fixture), and the
# profile export must run.
echo "== profile gates =="
dune build @profile
dune exec tools/benchcheck/benchcheck.exe -- compare \
  BENCH_pr3.json BENCH_pr5.json --max-regression 10
rm -rf _build/profile_export
dune exec bench/main.exe -- profile --iters 5 --out _build/profile_export \
  ide_read > /dev/null

# Exploration gates (ISSUE 6): the bounded exhaustive fault/policy
# exploration must finish its stated bound on the ide and gfx
# workloads with zero violations (exit 0 is the gate), the seeded
# regression must still be found, shrunk and reproduced byte-for-byte
# from the committed tape fixture, and the dedicated test suite (the
# engine, the decider, the campaign, the seeded acceptance) must pass.
echo "== explore gates =="
dune exec bench/main.exe -- explore --depth 4 --budget 2 --sites 3 \
  > _build/explore_smoke.out
tail -1 _build/explore_smoke.out
dune exec bench/main.exe -- explore --seeded-bug \
  --fixture test/golden/explore_counterexample.tape.jsonl > /dev/null
echo "ok: seeded regression found, shrunk and reproduced from the fixture"
dune build @explore

# Async-driver gates (ISSUE 7): the scheduler / interrupt-driven
# driver suite must pass (queues, timers, dispatch, the 8259A EOI
# regression, the rx-ring straddle, the sync/async failure-taxonomy
# equivalence, the IRQ-path fault cases, the Monitor oracle), and a
# fresh `bench async` run must pass its gates (queued DMA at >= 2x the
# polling driver's command rate) and, being deterministic, reproduce
# the committed BENCH_async.json byte for byte.
echo "== async gates =="
dune build @async
dune exec bench/main.exe -- async --out _build/bench_async.json > /dev/null
dune exec tools/benchcheck/benchcheck.exe -- _build/bench_async.json
cmp _build/bench_async.json BENCH_async.json
echo "ok: bench async reproduces BENCH_async.json"

# Lifecycle gates (ISSUE 9): the request-lifecycle suite must pass
# (rid threading, stage accounting, lost-vs-spurious classification,
# Chrome flow events, the health watchdog), a fresh `bench latency`
# run must pass its gates — 100% of its queued requests completed,
# zero orphans and an ok health verdict on both async workloads (the
# run itself exits 1 otherwise, benchcheck re-checks the artifact
# offline) — and the dumped event traces must reconstruct to the same
# verdict through tracetool's --min-complete gate.
echo "== lifecycle gates =="
dune build @lifecycle
rm -rf _build/latency_traces
dune exec bench/main.exe -- latency --out _build/bench_latency.json \
  --trace-dir _build/latency_traces > /dev/null
dune exec tools/benchcheck/benchcheck.exe -- _build/bench_latency.json
for w in ide-dma-async net-async; do
  dune exec tools/tracetool/tracetool.exe -- lifecycle \
    "_build/latency_traces/$w.trace.jsonl" --min-complete 100 > /dev/null
  echo "ok: $w lifecycles 100% complete, zero orphans"
done

# Harness gates (ISSUE 8): the generated per-spec battery — site-aware
# differential sequences, coverage obligations and the generated fault
# campaign, all derived from the IR with zero per-spec harness code —
# must pass its suite, and `bench harness` must reach >= 90% generated
# register coverage on every bundled spec (all 11, including the
# extension devices) with zero divergences and zero fault violations
# (exit 1 is the gate).
echo "== harness gates =="
DEVIL_QCHECK_COUNT=5 dune build @harness
dune exec bench/main.exe -- harness --qcount 5 > _build/harness_smoke.out
tail -1 _build/harness_smoke.out

# Telemetry gates (ISSUE 10): the mergeable-telemetry suite must pass
# (the tick sampler, the Metrics/Profile/Trace merge laws, the
# OpenMetrics and series exporters, the allocation-free disabled
# path), a 1-tick `bench soak` smoke must pass its gates (nonzero
# completions in every tick, ok health), the dumped series must replay
# through both tracetool telemetry commands, and a full run must
# reproduce the committed BENCH_telemetry.json byte for byte.
echo "== telemetry gates =="
dune build @telemetry
dune exec bench/main.exe -- soak --ticks 1 \
  --out _build/bench_telemetry.json \
  --series _build/telemetry_series.jsonl > /dev/null
dune exec tools/benchcheck/benchcheck.exe -- _build/bench_telemetry.json
dune exec tools/tracetool/tracetool.exe -- series \
  _build/telemetry_series.jsonl > /dev/null
dune exec tools/tracetool/tracetool.exe -- top \
  _build/telemetry_series.jsonl --once > /dev/null
echo "ok: dumped series replays through tracetool series and top"
dune exec bench/main.exe -- soak --out _build/bench_telemetry_full.json \
  > /dev/null
cmp _build/bench_telemetry_full.json BENCH_telemetry.json
echo "ok: bench soak reproduces BENCH_telemetry.json"

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== ocamlformat check =="
  dune build @fmt
else
  echo "== ocamlformat check skipped (no ocamlformat binary or .ocamlformat profile) =="
fi

echo "== all checks passed =="
