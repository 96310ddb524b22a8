"""The benchmark's own tests.

Run from the root of a source checkout (they are not part of the
repository's tier-1 suite, whose ``testpaths`` is ``tests/``)::

    python3 -m pytest perfbench -q

They check that ``BENCHMARK.json`` and the code name the same workloads
and metrics, that two same-seed runs produce identical counters, that an
extra seed runs correctly, that the command refuses to run outside a
checkout, and that the compare mode reads result records.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from common import case_means, peak_rss_mb, reset_peak_rss, tail  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Small op budgets: enough to touch every layer a workload reaches.
MAX_OPS = {"twig-cold": 24, "serve-zipf": 40, "update-storm": 6,
           "http-mixed": 4}


def _run(tmp_path: Path, workload: str, seed: int, trace: int = 0,
         cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    results = tmp_path / f"{workload}-{seed}-{trace}"
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "60",
         "--trace", str(trace), "--max-ops", str(MAX_OPS[workload]),
         "--results-dir", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    records = list(results.glob("*.json"))
    record = json.loads(records[0].read_text()) if records else {}
    return done, record


def test_benchmark_json_names_what_the_code_measures():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_reports_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 501)]
    found = tail(samples, 99.0)
    assert found["percentile"] == 95.0  # p99 has only 5 beyond
    assert found["beyond"] >= 10 and found["samples"] == 500


def test_case_means_average_each_cases_runs():
    means = case_means([3.0, 1.0, 2.0, 5.0, 4.0], ["a", "a", "b", "b", "c"])
    assert means == {"a": 2.0, "b": 3.5, "c": 4.0}


@pytest.mark.skipif(not Path("/proc/self/clear_refs").exists(),
                    reason="needs a resettable high-water mark (Linux)")
def test_peak_rss_covers_only_what_runs_after_the_reset():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    before = peak_rss_mb()
    del ballast
    reset_peak_rss()
    assert peak_rss_mb() < before - 32


def test_failed_heavy_stream_counts_as_failure(monkeypatch):
    """A broken connection (status 0) or a cut-off stream is a failed
    heavy query, not an exception that ends the heavy thread."""
    workload = workloads.HttpMixed(1, Path("."))
    workload.server = type("Server", (), {"port": 1})()
    sink = {"attempted": 0, "failures": []}
    for reply in ((0, b"ConnectionResetError()"), (200, b'{"page": []')):
        monkeypatch.setattr(workloads, "_http", lambda *a, r=reply, **k: r)
        workload._heavy_checked(sink)
    assert sink["attempted"] == 2 and len(sink["failures"]) == 2


def test_heavy_stream_pages_are_checked_on_every_stream(monkeypatch):
    """A stream repeating the pages of one checked in full passes; a
    stream with other pages is parsed and checked, and a wrong one fails."""
    workload = workloads.HttpMixed(1, Path("."))
    workload.server = type("Server", (), {"port": 1})()
    workload.expected = {"heavy": [(1,), (2,)]}
    workload.heavy_checked = None
    counters = dict.fromkeys(("elements_scanned", "pointer_jumps",
                              "comparisons", "candidates_added",
                              "intermediate_tuples"), 1)

    def stream(*pages):
        return b"\n".join(json.dumps({
            "page": page, "match_count": len(page),
            "done": index == len(pages) - 1, "error": None,
            "counters": counters, "io": {"logical_reads": 3},
        }, separators=(",", ":")).encode() for index, page in
            enumerate(pages))

    sink = {"attempted": 0, "failures": [], "lat": [], "work": 0,
            "reads": 0, "counters": []}
    for body in (stream([[1]], [[2]]), stream([[1]], [[2]]),
                 stream([[1], [2]]), stream([[1]], [[3]])):
        monkeypatch.setattr(workloads, "_http",
                            lambda *a, b=body, **k: (200, b))
        workload._heavy_checked(sink)
    assert sink["attempted"] == 4 and len(sink["lat"]) == 3
    assert sink["failures"] == ["heavy: wrong answer"]
    assert sink["reads"] == 3 * (2 + 2 + 1)  # per line of a passing stream


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_runs_repeat_counters_exactly(tmp_path, workload):
    first, a = _run(tmp_path / "a", workload, seed=3)
    second, b = _run(tmp_path / "b", workload, seed=3)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0, second.stdout + second.stderr
    assert a["determinism"] and a["determinism"] == b["determinism"]
    assert a["checks"].get("unstable_counters") is None


def test_traced_counters_repeat_exactly(tmp_path):
    first, a = _run(tmp_path / "a", "twig-cold", seed=3, trace=1)
    second, b = _run(tmp_path / "b", "twig-cold", seed=3, trace=1)
    assert first.returncode == 0 and second.returncode == 0
    counted = [name for name, unit in PER_LAYER.items()
               if name.startswith(("algorithms.", "storage."))
               and unit.startswith("count")]
    assert all(a["per_layer"][n] == b["per_layer"][n] for n in counted)
    assert a["per_layer"]["algorithms.elements_scanned"] > 0
    last = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == set(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_extra_seed_answers_correctly(tmp_path, workload):
    done, record = _run(tmp_path, workload, seed=29)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert record["environment"]["seed"] == 29


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twig-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_mode_reads_both_sides(tmp_path):
    done, __ = _run(tmp_path / "p", "update-storm", seed=5)
    assert done.returncode == 0
    parent = next((tmp_path / "p").glob("*/"))
    compared = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(parent),
         str(parent)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stderr
    assert "update-storm" in compared.stdout
    assert "query_geomean_ms" in compared.stdout
