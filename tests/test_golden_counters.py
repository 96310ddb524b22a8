"""Golden work-counter and I/O fixture for the Fig. 5 twigs.

``tests/golden/fig5_counters.json`` freezes, for every Fig. 5 twig query
(paper view sets) under VJ+LEp, VJ+LE, VJ+E and TS+E in memory and disk
mode, every :class:`~repro.algorithms.base.Counters` field together with
the run's logical and physical page reads.  Each evaluation starts from
an empty buffer pool, so every entry is independent of run order.  The
pool holds only ``POOL_PAGES`` pages, far fewer than the views occupy,
so page reads also pin down LRU eviction behaviour.

The tests demand exact equality, on the packed-column path and on the
pool-served reference path (``REPRO_COLUMNAR=0``) alike: a change to the
engines, the flush or the storage substrate that moves any counter or
any page read fails them.
Changes that mean to move them regenerate the fixture and say so::

    PYTHONPATH=src python tests/test_golden_counters.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "golden" / "fig5_counters.json"
SCALE = 0.5
SEED = 7
POOL_PAGES = 4
COMBOS = (("VJ", "LEp"), ("VJ", "LE"), ("VJ", "E"), ("TS", "E"))
MODES = ("memory", "disk")


def compute() -> dict[str, dict[str, int]]:
    """Counters and reads for every (query, combo, mode) case."""
    from repro.algorithms.engine import evaluate
    from repro.datasets import xmark
    from repro.storage.catalog import ViewCatalog
    from repro.storage.pager import Pager
    from repro.workloads.xmark import TWIG_QUERIES

    catalog = ViewCatalog(
        xmark.generate(scale=SCALE, seed=SEED),
        pager=Pager(pool_capacity=POOL_PAGES),
    )
    records: dict[str, dict[str, int]] = {}
    try:
        for spec in TWIG_QUERIES:
            for algorithm, scheme in COMBOS:
                for mode in MODES:
                    catalog.pager.pool.clear()
                    result = evaluate(
                        spec.query, catalog, spec.views, algorithm, scheme,
                        mode=mode,
                    )
                    records[f"{spec.name} {algorithm}+{scheme} {mode}"] = {
                        **result.counters.as_dict(),
                        "match_count": result.match_count,
                        "logical_reads": result.io.logical_reads,
                        "physical_reads": result.io.physical_reads,
                    }
    finally:
        catalog.close()
    return records


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, int]]:
    return compute()


def test_fixture_covers_every_case(measured):
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden["cases"]) == sorted(measured)
    assert len(measured) == 8 * len(COMBOS) * len(MODES)
    assert (golden["scale"], golden["seed"], golden["pool_pages"]) == (
        SCALE, SEED, POOL_PAGES,
    )


def _drift(measured) -> dict:
    golden = json.loads(FIXTURE.read_text())["cases"]
    drift = {
        case: {
            key: (golden[case].get(key), value)
            for key, value in record.items()
            if golden[case].get(key) != value
        }
        for case, record in measured.items()
    }
    return {case: d for case, d in drift.items() if d}


def test_counters_and_reads_match_golden(measured):
    assert _drift(measured) == {}


def test_reference_path_matches_golden(monkeypatch):
    """The pool-served reference path (no packed columns) accounts
    exactly what the fixture froze."""
    monkeypatch.setenv("REPRO_COLUMNAR", "0")
    assert _drift(compute()) == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_counters.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"scale": SCALE, "seed": SEED, "pool_pages": POOL_PAGES,
         "cases": compute()},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FIXTURE}")
