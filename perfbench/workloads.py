"""The four benchmark workloads.

Each workload builds its inputs from the seed (``build``), derives the
expected answers with the naive oracle outside any timing
(``prepare``), runs timed operations until a deadline (``run``), and ends
with its closing checks (``finish``).  Samples land in a :class:`Window`;
a traced run uses two windows, one untraced and one traced, so the cost
of tracing can be read off their difference.

Every timed answer is compared with the oracle's match keys.  A mismatch,
an error outcome, a refused or failed HTTP request counts as a failed
operation, and any failed operation makes the run incorrect.
"""

from __future__ import annotations

import http.client
import importlib
import json
import random
import re
import shutil
import threading
import time
import traceback
from collections import Counter as Tally
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path

from common import TAIL_MIN_BEYOND, keys_digest, oracle_keys, view_pages


@dataclass
class Window:
    """Samples and totals of one measured stretch of a run."""

    traced: bool = False
    #: per-query latencies (s) of the workload's query operation.
    query_lat: list = field(default_factory=list)
    #: the case of each ``query_lat`` sample, for workloads that repeat
    #: a fixed list of cases (see ``Workload.by_case``).
    query_case: list = field(default_factory=list)
    #: latencies (s) of the workload's secondary operation, and cases.
    secondary_lat: list = field(default_factory=list)
    secondary_case: list = field(default_factory=list)
    pinned_lat: list = field(default_factory=list)
    answered: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    #: engine work actually executed (cache hits and replays add 0).
    work: int = 0
    logical_reads: int = 0
    degraded: int = 0
    commits: int = 0
    pages_written: int = 0
    wal_bytes: int = 0
    repair_actions: Tally = field(default_factory=Tally)
    batch_merged_scanned: int = 0
    light_done: int = 0
    heavy_done: int = 0
    heavy_lat: list = field(default_factory=list)
    heavy_work: int = 0
    heavy_logical_reads: int = 0
    lateness: list = field(default_factory=list)
    #: the process's peak resident set during this window (MiB).
    peak_rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _xml_ingest(document):
    """Serialize and re-ingest through ``parse_xml``: the load path."""
    from repro.xmltree import parser
    from repro.xmltree.writer import write_xml

    text = write_xml(document)
    return parser.parse_xml(text, name=document.name), len(text.encode())


class Workload:
    """Common shape; subclasses fill in build/prepare/run/finish."""

    name = ""
    #: preferred percentile for ``query_tail_ms`` (see common.tail).
    tail_pct = 95.0
    #: samples that must lie beyond the tail percentile.
    tail_min_beyond = TAIL_MIN_BEYOND
    #: True where the timed operations repeat a fixed list of cases:
    #: latencies are then read as each case's mean over its runs in the
    #: window (common.case_means), and the latency metrics are taken
    #: over cases.
    by_case = False
    #: queries one secondary operation answers, for ``queries_per_s``.
    secondary_queries = 0
    #: the run's common.CpuRotation; None outside a run.
    cpus = None
    #: modules the workload calls, imported before set-up is timed.  A
    #: first import (in a fresh checkout, byte-compiling too) is not
    #: set-up work, and it made the first of a run's set-ups its slowest.
    modules: tuple = ("repro.tpq.naive", "repro.tpq.parser",
                      "repro.xmltree.parser", "repro.xmltree.writer")

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.inputs: dict = {}
        self.determinism: dict = {}
        self.checks: dict = {}

    def load_modules(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def discard(self) -> None:
        """Release one build (set-up runs several times per run), so the
        next build does not start while this one is still resident."""
        self.close()
        for name in ("document", "pinned_document", "catalog", "service",
                     "server"):
            self.__dict__.pop(name, None)

    def note(self, key: str, record) -> None:
        """Record counters for the determinism check; a key seen before
        must carry the same counters again."""
        seen = self.determinism.setdefault(key, record)
        if seen != record:
            self.checks.setdefault("unstable_counters", []).append(key)

    def close(self) -> None:
        pass

    def finish(self) -> None:
        """Closing checks after the last window; by default just close."""
        self.close()

    def tick(self) -> None:
        """Between two timed operations: let the CPU rotation move on."""
        if self.cpus is not None:
            self.cpus.tick()

    def request(self, rid) -> None:
        """Name the operation the following spans belong to."""
        if self.tracer is not None:
            self.tracer.set_request(rid)

    def stats(self) -> dict:
        """Service-side cumulative counters, diffed across a window."""
        return {}

    def qps(self, window: Window, query, secondary, pinned) -> float:
        """Queries answered per second of time inside the timed calls,
        from the latencies the metrics use (per case, the mean)."""
        answered = (len(query) + self.secondary_queries * len(secondary)
                    + len(pinned))
        busy = (sum(query) + sum(pinned)
                + (sum(secondary) if self.secondary_queries else 0.0))
        return answered / busy if busy else 0.0

    def per_query(self, window: Window) -> tuple[float, float]:
        """Executed ``Counters.work`` and logical reads per query."""
        if not window.answered:
            return 0.0, 0.0
        return (window.work / window.answered,
                window.logical_reads / window.answered)

    def detail(self, windows: list[Window]) -> dict:
        return {}


# -- twig-cold -----------------------------------------------------------


class TwigCold(Workload):
    """Engine-only Fig. 5 loop: 8 XMark twigs x 3 combos, cold pool.

    The 16 ViewJoin cases (VJ+LEp, VJ+LE) are the query operation; the 8
    TwigStack baseline cases (TS+E) are the secondary one.
    """

    name = "twig-cold"
    scale = 4.0
    combos = (("VJ", "LEp"), ("VJ", "LE"), ("TS", "E"))
    by_case = True
    #: over the 16 ViewJoin cases: the second slowest.
    tail_pct = 90.0
    tail_min_beyond = 1
    secondary_queries = 1
    modules = Workload.modules + (
        "repro.algorithms.engine", "repro.datasets.xmark",
        "repro.storage.catalog", "repro.workloads.xmark",
    )

    def build(self) -> None:
        from repro.datasets import xmark
        from repro.storage.catalog import ViewCatalog
        from repro.workloads import xmark as xw

        self.specs = xw.TWIG_QUERIES
        document, xml_bytes = _xml_ingest(
            xmark.generate(scale=self.scale, seed=self.seed)
        )
        self.document = document
        self.catalog = ViewCatalog(document)
        for spec in self.specs:
            for __, scheme in self.combos:
                for view in spec.views:
                    self.catalog.add(view, scheme)
        # Warm-up: one pass over every case (the first pass runs slower).
        for spec in self.specs:
            for algorithm, scheme in self.combos:
                self._evaluate(spec, algorithm, scheme)
        self.inputs = {
            "scale": self.scale,
            "document_nodes": len(document),
            "xml_bytes": xml_bytes,
            "view_pages": view_pages(self.catalog),
            "pool_capacity": self.catalog.pager.pool.capacity,
            "queries": [spec.name for spec in self.specs],
            "combos": ["+".join(combo) for combo in self.combos],
        }

    def close(self) -> None:
        self.catalog.close()

    def prepare(self) -> None:
        self.expected = {
            spec.name: oracle_keys(self.document, spec.query)
            for spec in self.specs
        }
        self.checks["oracle_digests"] = {
            name: keys_digest(keys) for name, keys in self.expected.items()
        }

    def _evaluate(self, spec, algorithm, scheme):
        from repro.algorithms import engine

        # Cold: every evaluation starts from an empty buffer pool.
        self.catalog.pager.pool.clear()
        return engine.evaluate(
            spec.query, self.catalog, spec.views, algorithm, scheme,
            mode="memory", emit_matches=True,
        )

    def run(self, window: Window, deadline: float, max_ops: int) -> None:
        # Whole passes only, so every run weighs the 24 cases equally.
        while time.perf_counter() < deadline and window.attempted < max_ops:
            for spec in self.specs:
                for algorithm, scheme in self.combos:
                    window.attempted += 1
                    self.tick()
                    self.request(f"twig-{window.attempted}")
                    begin = time.perf_counter()
                    result = self._evaluate(spec, algorithm, scheme)
                    elapsed = time.perf_counter() - begin
                    case = f"{spec.name} {algorithm}+{scheme}"
                    if algorithm == "VJ":
                        window.query_lat.append(elapsed)
                        window.query_case.append(case)
                    else:
                        window.secondary_lat.append(elapsed)
                        window.secondary_case.append(case)
                    if result.match_keys() != self.expected[spec.name]:
                        window.fail(f"{spec.name} {algorithm}+{scheme}")
                        continue
                    window.answered += 1
                    window.work += result.counters.work
                    window.logical_reads += result.io.logical_reads
                    self._record(spec.name, algorithm, scheme, result)

    def _record(self, name, algorithm, scheme, result) -> None:
        """Per-case counters: identical on every pass and every run."""
        self.note(f"{name} {algorithm}+{scheme}", {
            **result.counters.as_dict(),
            "logical_reads": result.io.logical_reads,
            "physical_reads": result.io.physical_reads,
        })


# -- serve-zipf ------------------------------------------------------------


class ServeZipf(Workload):
    """Closed-loop online reads through ``QueryService`` with Zipf skew."""

    name = "serve-zipf"
    scale = 4.0
    zipf_s = 1.2
    #: below the 14 distinct queries, so the result cache hits and evicts.
    result_cache_size = 8
    batch_every = 10
    batch_size = 8
    #: singles and batch members are drawn from two smooth weighted
    #: round-robin streams, each holding every query in its exact Zipf
    #: share over one period of ``period`` operations (180 singles, 20
    #: batches of 8).  The streams are the same for every seed (the seed
    #: varies the document), and after the first period the caches pass
    #: through the same states in every period.  So an operation's place
    #: in the period is its case: the same query with the same cache
    #: state, whose mean over its runs the latency metrics use.
    period = 200
    warm_ops = 60
    by_case = True
    secondary_queries = batch_size
    #: over the 180 single cases (p95 would leave fewer than 10 beyond).
    tail_pct = 90.0
    modules = Workload.modules + (
        "repro.datasets.xmark", "repro.service", "repro.storage.catalog",
        "repro.workloads.xmark",
    )

    def build(self) -> None:
        from repro.datasets import xmark
        from repro.service import QueryService
        from repro.storage.catalog import ViewCatalog
        from repro.workloads import xmark as xw

        self.queries = [spec.query.to_xpath() for spec in xw.ALL_QUERIES]
        document, xml_bytes = _xml_ingest(
            xmark.generate(scale=self.scale, seed=self.seed)
        )
        self.document = document
        self.catalog = ViewCatalog(document)
        self.service = QueryService(
            self.catalog, result_cache_size=self.result_cache_size
        )
        registered: dict[str, None] = {}
        for spec in xw.ALL_QUERIES:
            for view in spec.views:
                registered.setdefault(view.to_xpath(), None)
        for view in registered:
            self.service.register(view)
        self.service.warmup(self.queries)
        self.canonical = [
            self.service.evaluate(query).query for query in self.queries
        ]
        batches = self.period // self.batch_every
        self.cycle = {
            "single": self.period - batches,
            "batch": batches * self.batch_size,
        }
        self.shares = {
            stream: _zipf_counts(len(self.queries), self.zipf_s, draws)
            for stream, draws in self.cycle.items()
        }
        self.credit = {
            stream: [0] * len(self.queries) for stream in self.cycle
        }
        self.op_index = 0
        # Warm-up: fill the caches with the steady-state mix, unchecked.
        for __ in range(self.warm_ops):
            self._op(None)
        self.inputs = {
            "scale": self.scale,
            "document_nodes": len(document),
            "xml_bytes": xml_bytes,
            "view_pages": view_pages(self.catalog),
            "pool_capacity": self.catalog.pager.pool.capacity,
            "distinct_queries": len(self.queries),
            "zipf_s": self.zipf_s,
            "period_ops": self.period,
            "result_cache_size": self.result_cache_size,
            "batch_every": self.batch_every,
            "batch_size": self.batch_size,
            "registered_views": len(registered),
        }

    def close(self) -> None:
        self.service.close()
        self.catalog.close()

    def prepare(self) -> None:
        from repro.tpq.parser import parse_pattern

        self.expected = [
            oracle_keys(self.document, parse_pattern(text))
            for text in self.canonical
        ]
        self.checks["oracle_digests"] = {
            text: keys_digest(keys)
            for text, keys in zip(self.canonical, self.expected)
        }

    def _draw(self, stream: str) -> int:
        """Smooth weighted round-robin: every query gains its share, the
        richest is drawn and pays the cycle length."""
        credit = self.credit[stream]
        for rank, share in enumerate(self.shares[stream]):
            credit[rank] += share
        pick = credit.index(max(credit))
        credit[pick] -= self.cycle[stream]
        return pick

    def _op(self, window: Window | None) -> None:
        self.op_index += 1
        self.request(f"op-{self.op_index}")
        if self.op_index % self.batch_every == 0:
            picks = [self._draw("batch") for __ in range(self.batch_size)]
            begin = time.perf_counter()
            batch = self.service.evaluate_batch(
                [self.queries[i] for i in picks]
            )
            elapsed = time.perf_counter() - begin
            if window is None:
                return
            window.secondary_lat.append(elapsed)
            window.secondary_case.append(self.op_index % self.period)
            window.batch_merged_scanned += batch.counters.elements_scanned
            for pick, outcome in zip(picks, batch.outcomes):
                self._check(window, pick, outcome)
            return
        pick = self._draw("single")
        begin = time.perf_counter()
        outcome = self.service.evaluate(self.queries[pick])
        elapsed = time.perf_counter() - begin
        if window is None:
            return
        window.query_lat.append(elapsed)
        window.query_case.append(self.op_index % self.period)
        self._check(window, pick, outcome)

    def _check(self, window: Window, pick: int, outcome) -> None:
        window.attempted += 1
        if outcome.degraded:
            window.degraded += 1
        if outcome.error or outcome.match_keys != self.expected[pick]:
            window.fail(f"{self.queries[pick]}: {outcome.error or 'wrong'}")
            return
        window.answered += 1
        if not outcome.cached and not outcome.shared:
            window.work += outcome.counters.work
            window.logical_reads += outcome.io.logical_reads
            self.note(f"{self.op_index}.{window.attempted}", {
                "work": outcome.counters.work,
                "logical_reads": outcome.io.logical_reads,
                "physical_reads": outcome.io.physical_reads,
            })

    def run(self, window: Window, deadline: float, max_ops: int) -> None:
        while time.perf_counter() < deadline and window.attempted < max_ops:
            self.tick()
            self._op(window)

    def stats(self) -> dict:
        return _service_stats(self.service)


def _zipf_counts(items: int, exponent: float, total: int) -> list[int]:
    """Split ``total`` draws over ``items`` ranks in Zipf proportion
    (largest remainders get the rounding), at least one per rank."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(items)]
    scale = total / sum(weights)
    counts = [max(1, int(w * scale)) for w in weights]
    by_remainder = sorted(
        range(items), key=lambda r: weights[r] * scale - int(weights[r] * scale),
        reverse=True,
    )
    for rank in by_remainder[:max(0, total - sum(counts))]:
        counts[rank] += 1
    return counts


def _service_stats(service) -> dict:
    plan = service.plan_cache_stats
    result = service.result_cache_stats
    stream = service.stream_cache_stats
    shared = service.shared_metrics()
    resilience = service.resilience_metrics()
    return {
        "plan_hits": plan.hits, "plan_misses": plan.misses,
        "result_hits": result.hits, "result_misses": result.misses,
        "result_evictions": result.evictions,
        "stream_hits": stream.hits, "stream_misses": stream.misses,
        "executed_elements_scanned": shared["executed_elements_scanned"],
        "job_retries": resilience["job_retries"],
        "degraded_queries": resilience["degraded_queries"],
    }


# -- update-storm ----------------------------------------------------------


class UpdateStorm(Workload):
    """One-delta commits with a live and a pinned read after each.

    The run is a series of episodes.  Each starts from a fresh copy of
    the store saved at set-up and makes ``rounds`` commits of deltas
    drawn for that episode, so a run sees a new delta on every commit.
    A commit's cost follows its delta (the pages it rewrites), and when
    every episode replayed the same 24 deltas, the commit time of a run
    followed the pages those 24 happened to write: 1,059 to 1,715 pages
    per episode over seeds 1-10, and commit means from 84 to 109 ms.
    """

    name = "update-storm"
    scale = 1.0
    #: generation archive budget, in archived documents' worth of bytes.
    budget_generations = 6
    #: commits per episode; generation GC reaps from about the seventh.
    rounds = 24
    #: over the run's live reads (about 150).
    tail_pct = 90.0
    #: builds so far; each gets its own store directories.
    builds = 0
    modules = Workload.modules + (
        "repro.datasets.updates", "repro.datasets.xmark",
        "repro.maintenance.wal", "repro.service", "repro.storage.catalog",
        "repro.storage.persistence", "repro.workloads.xmark",
    )

    def build(self) -> None:
        from repro.datasets import xmark
        from repro.storage import persistence
        from repro.storage.catalog import Scheme, ViewCatalog
        from repro.workloads import xmark as xw

        self.builds += 1
        self.queries = [spec.query.to_xpath() for spec in xw.ALL_QUERIES]
        document, xml_bytes = _xml_ingest(
            xmark.generate(scale=self.scale, seed=self.seed)
        )
        self.pinned_document = document
        self.budget_bytes = self.budget_generations * xml_bytes
        self.pristine = self.workdir / f"pristine-{self.builds}"
        self.store = self.workdir / f"store-{self.builds}"
        for path in (self.pristine, self.store):
            shutil.rmtree(path, ignore_errors=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        with ViewCatalog(document) as catalog:
            for spec in xw.ALL_QUERIES:
                for view in spec.views:
                    catalog.add(view, Scheme.LINKED_PARTIAL)
            pages = view_pages(catalog)
            persistence.save_catalog(catalog, self.pristine)
        self._start_episode()
        self.episodes = 0
        self.stats_carried: Tally = Tally()
        self.inputs = {
            "scale": self.scale,
            "document_nodes": len(document),
            "xml_bytes": xml_bytes,
            "view_pages": pages,
            "pool_capacity": self.service.catalog.pager.pool.capacity,
            "distinct_queries": len(self.queries),
            "generation_budget_bytes": self.budget_bytes,
            "rounds_per_episode": self.rounds,
        }

    def _start_episode(self) -> None:
        """Open a fresh copy of the saved store, warm it, pin it."""
        from repro.service import QueryService

        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.pristine, self.store)
        self.service = QueryService.open(
            self.store, result_cache_size=64,
            generation_budget_bytes=self.budget_bytes,
        )
        self.service.warmup(self.queries)
        self.canonical = [
            self.service.evaluate(query).query for query in self.queries
        ]
        # Pinned for the whole episode; its cache entries are warm already.
        self.pin = self.service.pin_generation()
        self.round = 0

    def _restart(self) -> None:
        """Next episode; its set-up stays out of the traced layers and
        out of the service counters (see ``stats``)."""
        phase = self.tracer.phase if self.tracer is not None else None
        if phase is not None:
            self.tracer.phase = "reset"
        ended = _service_stats(self.service)
        self.service.unpin_generation(self.pin)
        self.close()
        self._start_episode()
        started = _service_stats(self.service)
        for key, value in ended.items():
            self.stats_carried[key] += value - started[key]
        if phase is not None:
            self.tracer.phase = phase

    def close(self) -> None:
        self.service.close()

    def discard(self) -> None:
        super().discard()
        for path in (self.pristine, self.store):
            shutil.rmtree(path, ignore_errors=True)

    def prepare(self) -> None:
        from repro.tpq.parser import parse_pattern

        self.patterns = [parse_pattern(text) for text in self.canonical]
        self.pinned_expected = [
            oracle_keys(self.pinned_document, pattern)
            for pattern in self.patterns
        ]
        self.checks["pinned_oracle_digests"] = {
            text: keys_digest(keys)
            for text, keys in zip(self.canonical, self.pinned_expected)
        }

    def _wal_size(self) -> int:
        from repro.maintenance.wal import WAL_FILENAME

        path = self.store / WAL_FILENAME
        return path.stat().st_size if path.exists() else 0

    def run(self, window: Window, deadline: float, max_ops: int) -> None:
        # Whole episodes only, so the store measured and reopened at the
        # end has taken a full episode of commits and generation GC.
        while time.perf_counter() < deadline and window.commits < max_ops:
            if self.round == self.rounds:
                self._restart()
            if self.round == 0:
                self.episodes += 1
            while self.round < self.rounds and window.commits < max_ops:
                self.tick()
                self._round(window)

    def _round(self, window: Window) -> None:
        from repro.datasets.updates import random_update_sequence

        service = self.service
        self.round += 1
        self.request(f"episode-{self.episodes}-round-{self.round}")
        pick = self.round % len(self.queries)
        (delta,), __ = random_update_sequence(
            service.catalog.document, count=1,
            seed=self.seed * 1_000_003 + self.episodes * 1_000 + self.round,
        )
        written = service.catalog.pager.page_file.stats.pages_written
        wal_before = self._wal_size()
        window.attempted += 1
        begin = time.perf_counter()
        report = service.apply_updates([delta])
        elapsed = time.perf_counter() - begin
        window.secondary_lat.append(elapsed)
        window.commits += 1
        pages = service.catalog.pager.page_file.stats.pages_written - written
        wal = self._wal_size() - wal_before
        actions = {
            action.upper(): count
            for action, count in report.action_counts().items()
        }
        window.pages_written += pages
        window.wal_bytes += wal
        window.repair_actions.update(actions)
        self.note(f"commit@{self.episodes}.{self.round}",
                  [pages, sorted(actions.items())])
        # Expectation for the new generation, outside timing.
        live_expected = oracle_keys(
            service.catalog.document, self.patterns[pick]
        )
        window.attempted += 1
        begin = time.perf_counter()
        outcome = service.evaluate(self.queries[pick])
        elapsed = time.perf_counter() - begin
        window.query_lat.append(elapsed)
        self._check(window, outcome, live_expected, "live")
        window.attempted += 1
        begin = time.perf_counter()
        pinned = service.evaluate(self.queries[pick], as_of=self.pin)
        elapsed = time.perf_counter() - begin
        window.pinned_lat.append(elapsed)
        self._check(window, pinned, self.pinned_expected[pick], "pinned")

    def _check(self, window, outcome, expected, label) -> None:
        if outcome.degraded:
            window.degraded += 1
        if outcome.error or outcome.match_keys != expected:
            window.fail(
                f"{label} {outcome.query} round {self.round}:"
                f" {outcome.error or 'wrong'}"
            )
            return
        window.answered += 1
        if not outcome.cached and not outcome.shared:
            window.work += outcome.counters.work
            window.logical_reads += outcome.io.logical_reads
            self.note(f"{label}@{self.episodes}.{self.round}",
                      outcome.counters.as_dict())

    def stats(self) -> dict:
        """The counters run on across episodes, each episode's own
        warm-up left out."""
        return {
            key: value + self.stats_carried[key]
            for key, value in _service_stats(self.service).items()
        }

    def finish(self) -> None:
        """Durability: reopen the store in a fresh service and re-check."""
        from repro.service import QueryService
        from repro.xmltree.writer import write_xml

        document = self.service.catalog.document
        doc_bytes = len(write_xml(document).encode())
        store_bytes = sum(
            path.stat().st_size for path in self.store.rglob("*")
            if path.is_file()
        )
        self.checks["store_bytes"] = store_bytes
        self.checks["document_bytes"] = doc_bytes
        self.checks["store_bytes_per_doc_byte"] = store_bytes / doc_bytes
        self.checks["episodes"] = self.episodes
        self.checks["commits_last_episode"] = self.round
        self.checks["generations_reaped"] = (
            self.service.resilience_metrics()["generations_reaped"]
        )
        self.service.unpin_generation(self.pin)
        self.close()
        mismatches = []
        with QueryService.open(self.store) as fresh:
            for query, pattern in zip(self.queries, self.patterns):
                outcome = fresh.evaluate(query)
                if outcome.match_keys != oracle_keys(document, pattern):
                    mismatches.append(query)
        self.checks["durability_mismatches"] = mismatches
        for path in (self.pristine, self.store):
            shutil.rmtree(path, ignore_errors=True)

    def detail(self, windows: list[Window]) -> dict:
        return {
            "store_bytes_per_doc_byte":
                self.checks.get("store_bytes_per_doc_byte"),
        }


# -- http-mixed ------------------------------------------------------------

HEAVY_QUERY = "//a[//b]//c"
LIGHT_QUERY = "//a//b//c//d"
HTTP_VIEWS = ("//a//c", "//b", "//a//b//c//d")


def _http(port: int, method: str, path: str, body: dict | None = None):
    """One blocking HTTP/1.1 exchange with the local server; a transport
    error comes back as status 0, so the caller counts it as failed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            method, path, json.dumps(body) if body is not None else None
        )
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()
    finally:
        conn.close()


class HttpMixed(Workload):
    """Light paginated queries on an open-loop schedule beside a heavy
    stream, over HTTP with step-bounded quanta.

    The query operation is the light query paged to ``done``; the
    secondary one is the light query's first page; ``queries_per_s``
    counts heavy streams.  All are timed on every sample: an open loop
    does not repeat its cases.
    """

    name = "http-mixed"
    #: the document is a forest of random trees, the same for every
    #: seed; the seed draws the light queries' send times.  The light
    #: query's cost swings by 2x between forests drawn from different
    #: seeds (28 to 54 driver steps over seeds 1-10), which moved its
    #: latency by a whole quantum from seed to seed.
    trees = 16
    tree_size = 2_500
    #: driver steps per quantum.  A step budget, not a wall-time one:
    #: the light query costs about 7 ms, so with 10 ms wall-time quanta
    #: it took one quantum on a fast host and two (with a heavy quantum
    #: between them) on a slow one, and its latency jumped 2.5x with
    #: the host's speed.  24 steps page the light query in two quanta
    #: and the heavy one in 107.
    quantum_steps = 24
    light_rate = 20.0  # light queries per second (open loop)
    tail_pct = 95.0
    modules = Workload.modules + (
        "repro.datasets.random_trees", "repro.server", "repro.service",
        "repro.storage.catalog",
    )

    def build(self) -> None:
        from repro.datasets import random_trees
        from repro.server import BackgroundServer, ServerConfig
        from repro.service import QueryService
        from repro.storage.catalog import ViewCatalog
        from repro.xmltree import parser
        from repro.xmltree.writer import write_xml

        text = "<forest>" + "".join(
            write_xml(random_trees.generate(
                size=self.tree_size, max_depth=6,
                seed=1_000 + tree,
            ))
            for tree in range(self.trees)
        ) + "</forest>"
        xml_bytes = len(text.encode())
        document = parser.parse_xml(text, name="forest")
        self.arrivals = random.Random(self.seed)
        #: the pages of the last heavy stream checked in full.
        self.heavy_checked = None
        self.document = document
        self.catalog = ViewCatalog(document)
        self.service = QueryService(self.catalog)
        for view in HTTP_VIEWS:
            self.service.register(view)
        self.service.warmup([HEAVY_QUERY, LIGHT_QUERY])
        self.canonical = {
            "light": self.service.evaluate(LIGHT_QUERY).query,
            "heavy": self.service.evaluate(HEAVY_QUERY).query,
        }
        self.server = BackgroundServer(self.service, ServerConfig(
            port=0, max_inflight=8, quantum_ms=0,
            quantum_steps=self.quantum_steps, quantum_matches=0,
        ))
        self.server.__enter__()
        # Warm-up: one of each over the wire.
        self._light(None, time.perf_counter())
        self._heavy(None)
        self.inputs = {
            "document_nodes": len(document),
            "xml_bytes": xml_bytes,
            "view_pages": view_pages(self.catalog),
            "pool_capacity": self.catalog.pager.pool.capacity,
            "heavy_query": HEAVY_QUERY,
            "light_query": LIGHT_QUERY,
            "quantum_steps": self.quantum_steps,
            "light_rate_per_s": self.light_rate,
            "loop": "light: open loop, one send per period at a seeded"
                    " point in its middle half; heavy: closed loop,"
                    " one stream after another",
        }

    def close(self) -> None:
        self.server.__exit__(None, None, None)
        self.service.close()
        self.catalog.close()

    def prepare(self) -> None:
        from repro.tpq.parser import parse_pattern

        self.expected = {
            kind: oracle_keys(self.document, parse_pattern(text))
            for kind, text in self.canonical.items()
        }
        self.checks["oracle_digests"] = {
            kind: keys_digest(keys) for kind, keys in self.expected.items()
        }

    def _light(self, window: Window | None, due: float):
        """Page the light query to ``done``; latency counts from ``due``."""
        tracing = window is not None and window.traced
        self.request(f"light-{due:.6f}")
        keys: list = []
        work = reads = 0
        sent = time.perf_counter()
        status, raw = _http(
            self.server.port, "POST", "/query", {"query": LIGHT_QUERY}
        )
        first_page = time.perf_counter()
        if tracing:
            self.tracer.record("http.light_request", sent, first_page)
        while status == 200:
            data = json.loads(raw)
            keys.extend(tuple(key) for key in data["page"])
            reads += data["io"]["logical_reads"]
            if data["error"] or data["done"]:
                work = data["counters"]
                break
            begin = time.perf_counter()
            status, raw = _http(
                self.server.port, "GET", "/next?token=" + data["token"]
            )
            if tracing:
                self.tracer.record("http.light_request", begin,
                                   time.perf_counter())
        done = time.perf_counter()
        if window is None:
            return
        window.attempted += 1
        window.lateness.append(sent - due)
        window.query_lat.append(done - due)
        window.secondary_lat.append(first_page - due)
        if status != 200 or data["error"]:
            window.fail(f"light: HTTP {status} {raw[:80]!r}")
            return
        if sorted(keys) != self.expected["light"]:
            window.fail("light: wrong answer")
            return
        window.answered += 1
        window.light_done += 1
        window.work += _work(work)
        window.logical_reads += reads
        self.note("light_counters", work)

    def _heavy(self, sink: dict | None):
        begin = time.perf_counter()
        self.request(f"heavy-{begin:.6f}")
        status, raw = _http(
            self.server.port, "POST", "/query",
            {"query": HEAVY_QUERY, "stream": True},
        )
        elapsed = time.perf_counter() - begin
        if sink is None:
            return
        sink["attempted"] += 1
        if status != 200:
            sink["failures"].append(f"heavy: HTTP {status} {raw[-80:]!r}")
            return
        lines = [line for line in raw.splitlines() if line]
        last = json.loads(lines[-1]) if lines else {}
        if last.get("error") or not last.get("done"):
            sink["failures"].append(f"heavy: cut off {raw[-80:]!r}")
            return
        # Parsing the whole stream (about 15,000 keys) held the
        # interpreter lock for about 34 ms every 0.25 s, beside the light
        # queries being timed.  A stream whose pages are byte for byte
        # those of a stream already checked is that same answer; any
        # other is parsed and checked in full.
        pages = b"\n".join(_page_bytes(line) for line in lines)
        if pages != self.heavy_checked:
            keys = sorted(
                tuple(key)
                for line in lines for key in json.loads(line)["page"]
            )
            if keys != self.expected["heavy"]:
                sink["failures"].append("heavy: wrong answer")
                return
            self.heavy_checked = pages
        sink["lat"].append(elapsed)
        sink["work"] += _work(last["counters"])
        sink["reads"] += sum(map(int, _LOGICAL_READS.findall(raw)))
        sink["counters"].append(last["counters"])

    def _heavy_checked(self, sink: dict) -> None:
        """One heavy stream; any exception (a garbled stream, say) is a
        failed heavy query and the stream goes on.  Losing the thread
        silently would drop the heavy load and hide the failure."""
        try:
            self._heavy(sink)
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc()
            sink["failures"].append(f"heavy: {exc!r}"[:200])

    def run(self, window: Window, deadline: float, max_ops: int) -> None:
        sink = {"attempted": 0, "lat": [], "failures": [], "work": 0,
                "reads": 0, "counters": []}
        stop = threading.Event()

        def heavy_loop():
            while not stop.is_set():
                self._heavy_checked(sink)

        heavy = threading.Thread(target=heavy_loop, name="bench-heavy")
        start = time.perf_counter()
        heavy.start()
        try:
            period = 1.0 / self.light_rate
            slot = start + 0.05  # let the heavy stream occupy the lane
            while slot < deadline and window.light_done < max_ops:
                # One send per period, at a seeded point in its middle half.
                due = slot + period * self.arrivals.uniform(0.25, 0.75)
                self.tick()
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self._light(window, due)
                slot += period
        finally:
            stop.set()
            heavy.join(timeout=120)
        if heavy.is_alive():
            raise RuntimeError("heavy stream did not stop within 120 s")
        window.wall_s += time.perf_counter() - start
        window.attempted += sink["attempted"]
        for failure in sink["failures"]:
            window.fail(failure)
        window.heavy_lat.extend(sink["lat"])
        window.heavy_done += len(sink["lat"])
        window.answered += len(sink["lat"])
        window.heavy_work += sink["work"]
        window.heavy_logical_reads += sink["reads"]
        for counters in sink["counters"]:
            self.note("heavy_counters", counters)

    def qps(self, window: Window, query, secondary, pinned) -> float:
        """Heavy streams completed per second of the window."""
        return window.heavy_done / window.wall_s if window.wall_s else 0.0

    def per_query(self, window: Window) -> tuple[float, float]:
        """The mean of the light and the heavy query's per-query figures:
        a rare-chain light query's work swings with the document, so
        pooling by count would let the light/heavy mix decide."""
        light = max(window.light_done, 1)
        heavy = max(window.heavy_done, 1)
        return (
            (window.work / light + window.heavy_work / heavy) / 2,
            (window.logical_reads / light
             + window.heavy_logical_reads / heavy) / 2,
        )

    def stats(self) -> dict:
        server = self.server.server
        stats = _service_stats(self.service)
        stats["shed"] = (
            server.shed_quota + server.shed_concurrency
            + server.shed_draining
        )
        return stats

    def detail(self, windows: list[Window]) -> dict:
        lateness = [x for window in windows for x in window.lateness]
        first = windows[0]
        return {
            "heavy_stream_p50_ms": 1000 * median(first.heavy_lat)
            if first.heavy_lat else None,
            "light_work_per_query": first.work / max(first.light_done, 1),
            "heavy_work_per_query":
                first.heavy_work / max(first.heavy_done, 1),
            "open_loop_lateness_ms": {
                "p50": 1000 * sorted(lateness)[len(lateness) // 2],
                "max": 1000 * max(lateness),
                "late_over_1ms": sum(1 for x in lateness if x > 0.001),
                "sends": len(lateness),
            } if lateness else None,
        }


#: a quantum's logical reads in the server's NDJSON line.
_LOGICAL_READS = re.compile(rb'"io":\{"logical_reads":(\d+)')


def _page_bytes(line: bytes) -> bytes:
    """The ``page`` value of one NDJSON line, as sent."""
    start = line.find(b'"page":')
    end = line.find(b',"match_count":', start)
    return line[start:end] if start >= 0 and end >= 0 else line


def _work(counters: dict) -> int:
    """``Counters.work`` from the wire's counter dict."""
    return (
        counters["elements_scanned"] + counters["pointer_jumps"]
        + counters["comparisons"] + counters["candidates_added"]
        + counters["intermediate_tuples"]
    )


WORKLOADS = {
    cls.name: cls for cls in (TwigCold, ServeZipf, UpdateStorm, HttpMixed)
}
