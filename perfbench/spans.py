"""Span tracing from outside the program: wrap public functions, record spans.

The benchmark changes nothing in ``src/``.  For a traced run it replaces
a fixed list of public functions and methods (``WRAPPED``) with wrappers
that record one span per call: name, start, end, parent span, request id
and phase.  Spans stay in memory and are written once, when the run ends.

A span's *self time* is its duration minus the time covered by its child
spans (calls to other wrapped functions made on the same thread while it
was open).  Wrapped module-level functions are patched in every loaded
``repro`` module that bound them by name (``from x import f``), so a call
is traced whichever module makes it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _engine_result(tracer, result, args, kwargs):
    tracer.count_counters(result.counters)
    tracer.count_io(result.io)


def _quantum_result(tracer, result, args, kwargs):
    result, state = result
    tracer.count_io(result.io)
    if state is None:  # counters are cumulative: count the final quantum
        tracer.count_counters(result.counters)


def _outcome_query(tracer, result, args, kwargs):
    return {"query": result.query, "done": result.done}


def _token_bytes(tracer, result, args, kwargs):
    tracer.count("server.token_bytes", len(result))
    tracer.count("server.tokens", 1)


def _gc_report(tracer, result, args, kwargs):
    tracer.count(
        "storage.gc_bytes_reclaimed",
        max(0, result.bytes_before - result.bytes_after),
    )


def _materialize_enumeration(fn):
    """``iter_matches`` is a generator: trace its full enumeration.

    Its one caller (``DagBuffer.flush``) drains it with ``list()``, so
    handing back an iterator over the drained list is the same behaviour.
    """

    @functools.wraps(fn)
    def drained(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return drained


#: (module, attribute path, span name, result hook, adapter).
WRAPPED = (
    ("repro.xmltree.parser", "parse_xml", "xmltree.parse", None, None),
    ("repro.storage.catalog", "ViewCatalog.add", "storage.materialize",
     None, None),
    ("repro.storage.persistence", "save_catalog", "storage.save", None, None),
    ("repro.storage.persistence", "load_catalog", "storage.open", None, None),
    ("repro.storage.persistence", "commit_store", "storage.commit",
     None, None),
    ("repro.storage.generations", "reap_generations", "storage.gc",
     _gc_report, None),
    ("repro.planner", "Planner.plan", "planner.plan", None, None),
    ("repro.selection.greedy", "select_views", "selection.select_views",
     None, None),
    ("repro.algorithms.engine", "evaluate", "engine.evaluate",
     _engine_result, None),
    ("repro.algorithms.engine", "evaluate_quantum", "engine.evaluate_quantum",
     _quantum_result, None),
    ("repro.algorithms.access", "build_sources", "algorithms.build_sources",
     None, None),
    ("repro.algorithms.viewjoin", "viewjoin", "algorithms.join", None, None),
    ("repro.algorithms.viewjoin", "viewjoin_quantum", "algorithms.join",
     None, None),
    ("repro.algorithms.twigstack", "twigstack", "algorithms.join",
     None, None),
    ("repro.algorithms.dag", "DagBuffer.flush", "algorithms.flush",
     None, None),
    ("repro.tpq.enumeration", "iter_matches", "tpq.enumerate", None,
     _materialize_enumeration),
    ("repro.service.core", "QueryService.evaluate", "service.evaluate",
     None, None),
    ("repro.service.core", "QueryService.evaluate_batch",
     "service.evaluate_batch", None, None),
    ("repro.service.core", "QueryService.evaluate_quantum",
     "server.quantum", _outcome_query, None),
    ("repro.service.core", "QueryService.resume_quantum", "server.quantum",
     _outcome_query, None),
    ("repro.service.continuation", "encode_token", "server.token_codec",
     _token_bytes, None),
    ("repro.service.continuation", "decode_token", "server.token_codec",
     None, None),
    ("repro.maintenance.engine", "apply_updates", "maintenance.apply",
     None, None),
    ("repro.maintenance.wal", "UpdateLog.append", "maintenance.wal_append",
     None, None),
)

#: Counter fields summed at the engine boundary.
COUNTER_FIELDS = (
    "elements_scanned", "pointer_jumps", "comparisons", "getnext_calls",
    "intermediate_tuples", "flushes", "matches",
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        #: (name, id, start, end, parent id, request id, self s, phase,
        #: attrs) per closed span, in closing order.
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count()  # next() is atomic across threads
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused by another object.
        self._originals: dict[int, tuple[object, object]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans opened on this thread with request id ``rid``.

        Quanta run on the server's own lane thread, which the client's
        request ids cannot reach, so their spans carry none."""
        self._local.rid = rid

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.phase, key)] += amount

    def count_io(self, io) -> None:
        self.count("storage.logical_reads", io.logical_reads)
        self.count("storage.physical_reads", io.physical_reads)

    def count_counters(self, counters) -> None:
        for name in COUNTER_FIELDS:
            self.count(f"algorithms.{name}", getattr(counters, name))

    def record(self, name: str, start: float, end: float,
               attrs: dict | None = None) -> None:
        """Record a span measured by the caller (a client-side request)."""
        stack = self._stack()
        parent = stack[-1][1] if stack else -1
        self.spans.append((
            name, next(self._ids), start, end, parent,
            getattr(self._local, "rid", None), end - start, self.phase,
            attrs,
        ))

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs = hook(tracer, result, args, kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans.append((
                    name, frame[1], start, end, parent,
                    getattr(tracer._local, "rid", None),
                    duration - frame[0], tracer.phase, attrs,
                ))

        self._originals[id(traced)] = (traced, fn)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of ``WRAPPED``; idempotent per install."""
        if self._patched:
            return
        for module_name, path, name, hook, adapter in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                target = adapter(original) if adapter else original
                setattr(owner, attr, self.wrap(name, target, hook))
                self._patched.append((owner, attr, original))
                continue
            original = getattr(module, path)
            target = adapter(original) if adapter else original
            wrapper = self.wrap(name, target, hook)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._patched.append((loaded, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # Modules imported while installed bound wrappers by name too.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if wrapper is value:
                    setattr(loaded, attr, original)

    # -- aggregation -------------------------------------------------------

    def spans_in(self, phase: str) -> list:
        return [span for span in self.spans if span[7] == phase]

    def self_time(self, phase: str) -> dict[str, dict]:
        """Per span name: calls, total self time and durations."""
        table: dict[str, dict] = {}
        for name, __, start, end, __, __, self_s, __, __ in (
            self.spans_in(phase)
        ):
            row = table.setdefault(
                name, {"calls": 0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["self_s"] += self_s
            row["durations"].append(end - start)
        return table

    def counted(self, phase: str, key: str) -> float:
        return self.counts.get((phase, key), 0.0)

    def write(self, path: Path) -> None:
        """Write every span once, as gzipped NDJSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                name, sid, start, end, parent, rid, self_s, phase, attrs = (
                    span
                )
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid, "self": self_s,
                    "phase": phase, "attrs": attrs,
                }, separators=(",", ":")) + "\n")
