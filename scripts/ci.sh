#!/usr/bin/env bash
# CI entry point: tier-1 tests plus a fast benchmark smoke pass.
#
# The smoke pass runs the substrate micro-benchmarks at a tiny dataset
# scale (REPRO_BENCH_SCALE shrinks the macro fixtures) with one warmup
# round — enough to catch substrate regressions and import/bench-harness
# breakage without the minutes-long full benchmark suite.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== repro-lint (whole-program: RL1xx per-file + RL2xx call-graph) =="
# Cold run (cache removed) then warm run, with wall-time budgets
# enforced (<10s cold, <2s warm) and JSON + SARIF artifacts written.
# lint_stats exits non-zero on any non-baselined finding.
python scripts/lint_stats.py --sarif .repro-lint.sarif \
    --json .repro-lint-report.json
python scripts/lint_report.py .repro-lint-report.json

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark's own tests (same-seed counter repeats, answer checks) =="
# tier-1's testpaths stop at tests/, so the perfbench suite runs here.
python3 -m pytest perfbench -q

echo "== benchmark smoke (micro substrate) =="
REPRO_BENCH_SCALE=0.1 python -m pytest benchmarks/test_micro_substrate.py \
    -q --benchmark-warmup=off --benchmark-min-rounds=1 \
    --benchmark-disable-gc --benchmark-columns=median

echo "== benchmark smoke (columnar off) =="
REPRO_BENCH_SCALE=0.1 REPRO_COLUMNAR=0 python -m pytest \
    benchmarks/test_micro_substrate.py -q --benchmark-warmup=off \
    --benchmark-min-rounds=1 --benchmark-columns=median

echo "== service smoke (parallel sequential-equality, workers=2) =="
python scripts/smoke_parallel.py

echo "== maintenance smoke (canned WAL replay vs golden rebuild) =="
python scripts/smoke_maintenance.py

echo "== shared-batch smoke (CSE vs independent byte-equality) =="
timeout 120 python scripts/smoke_shared.py

echo "== advisor smoke (adoption cycle: identical answers, less work) =="
timeout 120 python scripts/smoke_advisor.py

echo "== serve smoke (1 ms quanta over HTTP == one-shot answer) =="
timeout 120 python scripts/smoke_serve.py

echo "== chaos smoke (fixed-seed fault plan, correct-or-typed) =="
# `timeout` is the outer wall-clock guard: a chaos regression that
# hangs (instead of returning typed outcomes) must fail CI, not wedge it.
timeout 300 python scripts/smoke_chaos.py

echo "== mvcc smoke (update storm: zero failed / degraded snapshot reads) =="
timeout 300 python scripts/smoke_mvcc.py
