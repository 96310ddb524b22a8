"""Shared pieces of the benchmark: percentiles, answer digests, provenance.

Everything here is pure bookkeeping around the system under test; the
workloads in :mod:`workloads` call into ``repro`` and use these helpers to
turn samples into the named metrics.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Percentile ladder for ``*_tail_ms``: the highest rung with at least
#: ``TAIL_MIN_BEYOND`` samples strictly beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[min(len(ordered), int(rank)) - 1]


def tail(samples: list[float], preferred: float,
         min_beyond: int = TAIL_MIN_BEYOND) -> dict:
    """The ``preferred`` percentile, stepping down the ladder until at
    least ``min_beyond`` samples lie beyond it.

    Each workload fixes ``preferred`` from its expected sample count so
    the reported percentile does not flip between runs; the step-down
    only guards slow machines, and the percentile used is always
    recorded beside the value.
    """
    count = len(samples)
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        value = percentile(samples, pct)
        beyond = sum(1 for sample in samples if sample > value)
        if beyond >= min_beyond or pct == TAIL_LADDER[-1]:
            return {"value": value, "percentile": pct, "samples": count,
                    "beyond": beyond}
    raise AssertionError("unreachable: the ladder ends at the median")


def case_means(latencies: list[float], cases: list) -> dict:
    """Each case's mean latency over its runs in the window.

    A workload that repeats a fixed list of cases does the same work on
    every repeat, so a case's runs differ only by how busy the host was.
    The mean over a run's repeats does not depend on how many repeats
    fit in the window; the fastest run does (it falls as repeats are
    added, so on a slow host, with fewer repeats, it read higher still),
    and on 10 s slices of one run it spread about twice as wide as the
    mean.
    """
    runs: dict = {}
    for case, latency in zip(cases, latencies):
        runs.setdefault(case, []).append(latency)
    return {case: sum(values) / len(values) for case, values in runs.items()}


class CpuRotation:
    """Run the whole process on one CPU at a time, taking the allowed
    CPUs in turn.

    The CPUs of a shared virtual machine are slowed by their neighbours
    independently, by up to 1.5x and for tens of seconds at a time; a
    run left on one CPU reads that CPU's luck for the whole run.  Moving
    to the next CPU every ``period`` seconds makes every run average
    over all of them.  Keeping all threads on one CPU at a time also
    keeps the hand-overs of the interpreter lock between the threads of
    ``http-mixed`` local: spread over two CPUs, its light latency moved
    1.4x with the load on the other CPU.
    """

    def __init__(self, period: float = 0.5):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self.period = period
        self.turn = 0
        self.due = 0.0
        if self.cpus:
            self._move()

    def _move(self) -> None:
        target = {self.cpus[self.turn % len(self.cpus)]}
        try:
            threads = [int(tid) for tid in os.listdir("/proc/self/task")]
        except OSError:
            threads = [0]
        for tid in threads:
            try:
                os.sched_setaffinity(tid, target)
            except OSError:
                pass  # the thread has ended meanwhile
        self.due = time.perf_counter() + self.period

    def next(self) -> None:
        """Move every thread to the next CPU now."""
        if len(self.cpus) > 1:
            self.turn += 1
            self._move()

    def tick(self) -> None:
        """Move on if this CPU's turn is over; cheap enough per op."""
        if len(self.cpus) > 1 and time.perf_counter() >= self.due:
            self.next()


def keys_digest(keys) -> str:
    """SHA-256 over a sorted match-key list (the answer fingerprint)."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(tuple(key)).encode("ascii"))
    return digest.hexdigest()[:16]


def oracle_keys(document, pattern) -> list[tuple[int, ...]]:
    """Match keys of ``pattern`` from the brute-force naive oracle."""
    from repro.tpq.naive import find_embeddings

    return [
        tuple(node.start for node in match)
        for match in find_embeddings(document, pattern)
    ]


def reset_peak_rss() -> None:
    """Restart the peak-RSS high-water mark (Linux), so that
    :func:`peak_rss_mb` covers only what runs after this call."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size in MiB since :func:`reset_peak_rss`, or
    since the process started where the mark cannot be reset."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    head = done.stdout.strip()
    return head if done.returncode == 0 and head else None


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def view_pages(catalog) -> int:
    """Pages the catalog's materialized views occupy."""
    return sum(info.num_pages for info in catalog.views())
