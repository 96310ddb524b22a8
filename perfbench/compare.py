"""Compare two directories of result records (parent vs change).

For each workload and end-to-end metric it prints both sides' medians
and quartiles, how many seed-matched pairs the change won, and a verdict:

* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the metric's bound from ``BENCHMARK.json``, unless every
  change run beats every parent run;
* ``worse`` — the change's median is worse by more than the bound;
* ``better`` — the change won at least nine tenths of the pairs and its
  median moved by more than the parent's own spread;
* ``same`` — otherwise.

It then prints the per-layer deltas (medians of the traced runs) for
every layer metric that is non-zero on either side.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(directory: Path) -> dict:
    """workload -> trace flag -> seed -> record."""
    found: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" not in record:
            continue
        by_trace = found.setdefault(record["workload"], {0: {}, 1: {}})
        by_trace[record["trace"]][record["seed"]] = record
    return found


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> float:
    q1, mid, q3 = _quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def _verdict(parent, change, higher_better, bound, wins, pairs) -> str:
    def better(a, b):
        return a > b if higher_better else a < b

    if max(_spread(parent), _spread(change)) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better"
        return "unresolved"
    p_mid = statistics.median(parent)
    c_mid = statistics.median(change)
    shift = (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    worse_by = -shift if higher_better else shift
    if worse_by > bound:
        return "worse"
    if (pairs and wins >= 0.9 * pairs and -worse_by > _spread(parent)):
        return "better"
    return "same"


def compare(parent_dir: Path, change_dir: Path, bench_path: Path) -> int:
    bench = json.loads(bench_path.read_text())
    metrics = bench["end_to_end"]
    parent, change = _load(parent_dir), _load(change_dir)
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload][0], change[workload][0]
        print(f"== {workload}: {len(p_runs)} parent runs,"
              f" {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"  {'metric':26s} {'parent q1/med/q3':>32s}"
              f" {'change q1/med/q3':>32s} {'wins':>7s}  verdict")
        for spec in metrics:
            name = spec["name"]
            higher = spec["better"] == "higher"
            p_vals = [r["end_to_end"][name] for r in p_runs.values()]
            c_vals = [r["end_to_end"][name] for r in c_runs.values()]
            wins = sum(
                1 for seed in seeds
                if (c_runs[seed]["end_to_end"][name]
                    > p_runs[seed]["end_to_end"][name]) == higher
                and c_runs[seed]["end_to_end"][name]
                != p_runs[seed]["end_to_end"][name]
            )
            verdict = _verdict(
                p_vals, c_vals, higher, spec["bound"], wins, len(seeds)
            )
            p_q, c_q = _quartiles(p_vals), _quartiles(c_vals)
            print(f"  {name:26s} "
                  f"{'/'.join(f'{v:.4g}' for v in p_q):>32s} "
                  f"{'/'.join(f'{v:.4g}' for v in c_q):>32s} "
                  f"{wins:>3d}/{len(seeds):<3d}  {verdict}"
                  f" ({spec['unit']})")
        _layer_deltas(parent[workload][1], change[workload][1])
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads on one side only: {only}")
    return 0


def _layer_deltas(p_runs: dict, c_runs: dict) -> None:
    if not p_runs or not c_runs:
        print("  (no traced runs on both sides: no per-layer deltas)")
        return
    print(f"  per-layer medians of traced runs"
          f" ({len(p_runs)} parent, {len(c_runs)} change):")
    names = next(iter(p_runs.values()))["per_layer"]
    for name in names:
        p_mid = statistics.median(
            r["per_layer"][name] for r in p_runs.values()
        )
        c_mid = statistics.median(
            r["per_layer"][name] for r in c_runs.values()
        )
        if not p_mid and not c_mid:
            continue
        change = f"{100 * (c_mid - p_mid) / abs(p_mid):+.1f}%" if p_mid else ""
        print(f"    {name:40s} {p_mid:>12.5g} -> {c_mid:<12.5g} {change}")
