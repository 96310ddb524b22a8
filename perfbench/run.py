"""Run one benchmark workload, or compare two sets of results.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload twig-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare RESULTS_PARENT RESULTS_CHANGE

A run builds the workload's inputs from ``--seed`` (timing the set-up
several times), derives every expected answer with the naive oracle,
measures for ``--seconds`` seconds while checking every answer, and
prints the metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (provenance, tails, counters, checks) is
written to ``.perfbench/results/`` and, for traced runs, every span to
``.perfbench/traces/``.  The exit code is 0 only when every answer was
right.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: How many times set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Hard cap on a run's measured window, whatever ``--seconds`` says.
MAX_SECONDS = 120


def _arguments(argv):
    parser = argparse.ArgumentParser(
        description="ViewJoin system benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=1 << 62,
        help="stop after this many operations (determinism tests)",
    )
    parser.add_argument(
        "--results-dir", default=str(ROOT / ".perfbench" / "results"),
        help="where the full result record is written",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"),
        help="compare two directories of result records and exit",
    )
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def _attach_source() -> bool:
    """Make ``src/`` importable; False when this is not a checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def run(args) -> int:
    from common import CpuRotation, environment, peak_rss_mb, reset_peak_rss
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
    from spans import Tracer
    from workloads import WORKLOADS, Window

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = min(float(args.seconds), MAX_SECONDS)
    scratch = ROOT / ".perfbench" / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Temp files of the program stay inside the checkout too.
    tempfile.tempdir = str(scratch)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, scratch, tracer)
    workload.cpus = CpuRotation()
    try:
        workload.load_modules()
        if tracer is not None:
            tracer.install()
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.discard()
                workload.cpus.next()
            gc.collect()
            begin = time.perf_counter()
            workload.build()
            setup_times.append(time.perf_counter() - begin)
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "oracle"
        workload.prepare()
        windows = []
        plan = [(False, seconds)] if tracer is None else [
            (False, seconds / 2), (True, seconds / 2)
        ]
        for traced, length in plan:
            window = Window(traced=traced)
            if tracer is not None:
                tracer.phase = "run" if traced else "untraced"
                if traced:
                    tracer.install()
            gc.collect()
            reset_peak_rss()
            window.stats_before = workload.stats()
            workload.run(window, time.perf_counter() + length, args.max_ops)
            window.peak_rss_mb = peak_rss_mb()
            window.stats_after = workload.stats()
            if tracer is not None and traced:
                tracer.uninstall()
            windows.append(window)
        if tracer is not None:
            tracer.phase = "check"
        workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f for window in windows for f in window.failures]
    failed = sum(window.failed for window in windows)
    attempted = sum(window.attempted for window in windows)
    checks = workload.checks
    if checks.get("unstable_counters"):
        failures.append(f"counters changed: {checks['unstable_counters']}")
        failed += 1
    if checks.get("durability_mismatches"):
        failures.append(f"reopened store: {checks['durability_mismatches']}")
        failed += 1
    correct = failed == 0 and attempted > 0
    measured = [end_to_end(workload, w, setup_times) for w in windows]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment(ROOT, args.seed),
        "inputs": workload.inputs,
        "end_to_end": measured[0][0],
        "provenance": {**measured[0][1], **workload.detail(windows)},
        "checks": checks,
        "failures": failures,
        "determinism": workload.determinism,
        # Raw latencies (s) of the first window, so a record can be
        # re-read with other estimators.
        "samples": {
            name: getattr(windows[0], name)
            for name in ("query_lat", "query_case", "secondary_lat",
                         "secondary_case", "pinned_lat")
        },
    }
    if tracer is None:
        metrics = {
            name: {"value": measured[0][0][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        layers = per_layer(
            tracer, workload, windows[1],
            (measured[1][0]["query_geomean_ms"],
             measured[0][0]["query_geomean_ms"]),
            SETUP_REPEATS,
        )
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        record["end_to_end_traced"] = measured[1][0]
        record["per_layer"] = layers
        record["self_time"] = {
            phase: {
                name: {"calls": row["calls"], "self_s": row["self_s"]}
                for name, row in tracer.self_time(phase).items()
            }
            for phase in ("setup", "run")
        }
        trace_dir = ROOT / ".perfbench" / "traces"
        tracer.write(
            trace_dir / f"{args.workload}-seed{args.seed}.ndjson.gz"
        )
    results = Path(args.results_dir)
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if tracer else 'untraced'}  record {out}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.compare is not None:
        from compare import compare

        return compare(Path(args.compare[0]), Path(args.compare[1]),
                       HERE.parent / "BENCHMARK.json")
    if not _attach_source():
        print("perfbench: no src/repro here; run from the root of a"
              " source checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
