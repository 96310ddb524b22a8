"""Count-only evaluation (``emit_matches=False``) equals the emitting run.

A count-only flush counts each partition's matches without building
them.  It must still report the same ``match_count``, the same work
counters and the same page I/O as a run that emits every match —
including the disk mode's spill writes and reloads, which happen before
the count.
"""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import random_trees, xmark
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern
from repro.workloads.xmark import BY_NAME

SCHEMES = ("E", "LE", "LEp")
MODES = ("memory", "disk")


def _io(result) -> tuple[int, int, int]:
    io = result.io
    return io.logical_reads, io.physical_reads, io.pages_written


def _assert_count_only_matches_emitting(catalog, query, views, algorithm,
                                        scheme, mode):
    runs = []
    for emit in (True, False):
        catalog.pager.pool.clear()
        runs.append(evaluate(
            query, catalog, views, algorithm, scheme, mode=mode,
            emit_matches=emit,
        ))
    emitted, counted = runs
    assert counted.matches == []
    assert counted.match_count == emitted.match_count == len(emitted.matches)
    assert counted.counters == emitted.counters
    assert _io(counted) == _io(emitted)


@pytest.fixture(scope="module")
def xmark_catalog():
    catalog = ViewCatalog(xmark.generate(scale=0.5, seed=3))
    yield catalog
    catalog.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("algorithm", ("VJ", "TS"))
@pytest.mark.parametrize("name", ("Q4", "Q14", "Q19"))
def test_count_only_equals_emitting_xmark(xmark_catalog, name, algorithm,
                                          scheme, mode):
    spec = BY_NAME[name]
    _assert_count_only_matches_emitting(
        xmark_catalog, spec.query, spec.views, algorithm, scheme, mode
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("algorithm", ("VJ", "TS"))
def test_count_only_equals_emitting_recursive(algorithm, scheme, mode):
    """Recursive random trees: nested partitions and many flushes."""
    catalog = ViewCatalog(random_trees.generate(size=300, seed=11))
    try:
        _assert_count_only_matches_emitting(
            catalog, parse_pattern("//a[//b]//c/d"), [
                parse_pattern("//a//b"), parse_pattern("//c/d"),
            ], algorithm, scheme, mode,
        )
    finally:
        catalog.close()
