"""Turn a run's windows and spans into the named metrics.

``END_TO_END`` and ``PER_LAYER`` list every metric with its unit; the
benchmark's own tests check that ``BENCHMARK.json`` names the same ones.
"""

from __future__ import annotations

import bisect
from statistics import geometric_mean, median

from common import case_means, tail

#: name -> unit.  Every workload reports every one (see README.md).
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_geomean_ms": "ms",
    "query_tail_ms": "ms",
    "secondary_geomean_ms": "ms",
    "work_per_query": "count",
    "logical_reads_per_query": "count",
    "peak_rss_mb": "MiB",
}

_PER_QUERY = "count/query"
_PER_COMMIT = "count/commit"

#: name -> unit, in the order they are printed.
PER_LAYER = {
    "xmltree.parse_s": "s",
    "storage.materialize_s": "s",
    "storage.save_s": "s",
    "storage.open_s": "s",
    "storage.logical_reads": _PER_QUERY,
    "storage.physical_reads": _PER_QUERY,
    "storage.pool_hit_ratio": "ratio",
    "storage.commit_s": "s",
    "storage.pages_written": _PER_COMMIT,
    "storage.gc_s": "s",
    "storage.gc_bytes_reclaimed": "bytes/commit",
    "planner.plan_s": "s",
    "planner.plan_cache_hit_ratio": "ratio",
    "selection.select_views_s": "s",
    "algorithms.build_sources_s": "s",
    "algorithms.join_s": "s",
    "algorithms.flush_s": "s",
    "algorithms.flush_tail_ms": "ms",
    "tpq.enumerate_s": "s",
    "algorithms.elements_scanned": _PER_QUERY,
    "algorithms.pointer_jumps": _PER_QUERY,
    "algorithms.comparisons": _PER_QUERY,
    "algorithms.getnext_calls": _PER_QUERY,
    "algorithms.intermediate_tuples": _PER_QUERY,
    "algorithms.flushes": _PER_QUERY,
    "service.assemble_s": "s",
    "service.result_cache_hit_ratio": "ratio",
    "service.result_cache_evictions": _PER_QUERY,
    "service.stream_cache_hit_ratio": "ratio",
    "service.shared_dedup_ratio": "ratio",
    "service.degraded": "count",
    "maintenance.apply_s": "s",
    "maintenance.wal_append_s": "s",
    "maintenance.wal_bytes": "bytes/commit",
    "maintenance.repair_actions.NOOP": _PER_COMMIT,
    "maintenance.repair_actions.SHIFT": _PER_COMMIT,
    "maintenance.repair_actions.SPLICE": _PER_COMMIT,
    "maintenance.repair_actions.REBUILD": _PER_COMMIT,
    "maintenance.repair_actions.DROP": _PER_COMMIT,
    "server.quantum_tail_ms": "ms",
    "server.lane_wait_s": "s",
    "server.framing_s": "s",
    "server.token_codec_s": "s",
    "server.token_bytes": "bytes",
    "server.quanta_per_query": _PER_QUERY,
    "server.shed_responses": "count",
    "resilience.retries": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(workload, window, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics of one window plus the provenance behind
    them (tail percentile and sample counts, failure share).

    For a workload that repeats a fixed list of cases, the latency
    metrics are taken over cases, each at its mean over its runs in the
    window (see ``common.case_means``); otherwise over every sample.
    The typical latency is the geometric mean: the cases of a workload
    form clusters (cache hits and misses, cheap and costly twigs), and a
    median over them jumps from one cluster to the next with small
    changes.
    """
    if workload.by_case:
        query, secondary = (
            list(case_means(samples, cases).values())
            for samples, cases in (
                (window.query_lat, window.query_case),
                (window.secondary_lat, window.secondary_case),
            )
        )
    else:
        query = window.query_lat
        secondary = window.secondary_lat
    pinned = window.pinned_lat
    query_tail = tail(query, workload.tail_pct, workload.tail_min_beyond)
    work, reads = workload.per_query(window)
    values = {
        "setup_s": median(setup_times),
        "queries_per_s": workload.qps(window, query, secondary, pinned),
        "query_geomean_ms": 1000 * geometric_mean(query),
        "query_tail_ms": 1000 * query_tail["value"],
        "secondary_geomean_ms": 1000 * geometric_mean(secondary),
        "work_per_query": work,
        "logical_reads_per_query": reads,
        "peak_rss_mb": window.peak_rss_mb,
    }
    provenance = {
        "latency_over": "cases, each at its mean over its runs"
        if workload.by_case else "every sample",
        "query_p50_ms": 1000 * median(query),
        "query_tail": {**query_tail, "value_ms": 1000 * query_tail["value"]},
        "query_samples": len(window.query_lat),
        "secondary_p50_ms": 1000 * median(secondary),
        "secondary_samples": len(window.secondary_lat),
        "secondary_tail": _tail_ms(secondary, workload.tail_pct,
                                   workload.tail_min_beyond),
        "setup_times_s": setup_times,
        "attempted": window.attempted,
        "failed": window.failed,
        "failed_ratio": _ratio(window.failed, window.attempted),
    }
    if pinned:
        provenance["pinned_read_p50_ms"] = 1000 * median(pinned)
        provenance["pinned_read_tail"] = _tail_ms(
            pinned, workload.tail_pct, workload.tail_min_beyond
        )
    return values, provenance


def _tail_ms(samples, preferred, min_beyond) -> dict | None:
    if not samples:
        return None
    found = tail(samples, preferred, min_beyond)
    return {**found, "value_ms": 1000 * found["value"]}


def per_layer(tracer, workload, traced, overhead_ms, setups: int) -> dict:
    """Per-layer self times and counts from the traced window.

    Times of layers that run during set-up are per set-up; the rest are
    per answered query, or per commit for the commit path.  Layers a
    workload never reaches report 0.  ``overhead_ms`` is the traced
    window's ``query_geomean_ms`` and the untraced window's.
    """
    setup = tracer.self_time("setup")
    run = tracer.self_time("run")
    queries = traced.answered
    commits = traced.commits
    before, after = traced.stats_before, traced.stats_after

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def setup_s(name):
        return _ratio(setup.get(name, {}).get("self_s", 0.0), setups)

    def self_s(name, per=queries):
        return _ratio(run.get(name, {}).get("self_s", 0.0), per)

    def counted(key, per=queries):
        return _ratio(tracer.counted("run", key), per)

    def tail_ms(name):
        durations = run.get(name, {}).get("durations")
        return 1000 * tail(durations, 99.0)["value"] if durations else 0.0

    logical = tracer.counted("run", "storage.logical_reads")
    physical = tracer.counted("run", "storage.physical_reads")
    lane_wait, framing = _lane_split(tracer, workload)
    light = traced.light_done
    quanta = run.get("server.quantum", {}).get("calls", 0)
    http_queries = traced.light_done + traced.heavy_done
    traced_ms, untraced_ms = overhead_ms
    values = {
        "xmltree.parse_s": setup_s("xmltree.parse"),
        "storage.materialize_s": setup_s("storage.materialize"),
        "storage.save_s": setup_s("storage.save"),
        "storage.open_s": setup_s("storage.open"),
        "storage.logical_reads": _ratio(logical, queries),
        "storage.physical_reads": _ratio(physical, queries),
        "storage.pool_hit_ratio": 1 - physical / logical if logical else 0.0,
        "storage.commit_s": self_s("storage.commit", commits),
        "storage.pages_written": _ratio(traced.pages_written, commits),
        "storage.gc_s": self_s("storage.gc", commits),
        "storage.gc_bytes_reclaimed":
            counted("storage.gc_bytes_reclaimed", commits),
        "planner.plan_s": self_s("planner.plan"),
        "planner.plan_cache_hit_ratio": _ratio(
            delta("plan_hits"), delta("plan_hits") + delta("plan_misses")
        ),
        "selection.select_views_s": self_s("selection.select_views"),
        "algorithms.build_sources_s": self_s("algorithms.build_sources"),
        "algorithms.join_s": self_s("algorithms.join"),
        "algorithms.flush_s": self_s("algorithms.flush"),
        "algorithms.flush_tail_ms": tail_ms("algorithms.flush"),
        "tpq.enumerate_s": self_s("tpq.enumerate"),
        "service.assemble_s": _ratio(
            run.get("service.evaluate", {}).get("self_s", 0.0)
            + run.get("service.evaluate_batch", {}).get("self_s", 0.0),
            queries,
        ),
        "service.result_cache_hit_ratio": _ratio(
            delta("result_hits"), delta("result_hits") + delta("result_misses")
        ),
        "service.result_cache_evictions":
            _ratio(delta("result_evictions"), queries),
        "service.stream_cache_hit_ratio": _ratio(
            delta("stream_hits"), delta("stream_hits") + delta("stream_misses")
        ),
        "service.shared_dedup_ratio": _ratio(
            traced.batch_merged_scanned, delta("executed_elements_scanned")
        ),
        "service.degraded": traced.degraded,
        "maintenance.apply_s": self_s("maintenance.apply", commits),
        "maintenance.wal_append_s": self_s("maintenance.wal_append", commits),
        "maintenance.wal_bytes": _ratio(traced.wal_bytes, commits),
        "server.quantum_tail_ms": tail_ms("server.quantum"),
        "server.lane_wait_s": _ratio(lane_wait, light),
        "server.framing_s": _ratio(framing, light),
        "server.token_codec_s": self_s("server.token_codec", http_queries),
        "server.token_bytes": _ratio(
            tracer.counted("run", "server.token_bytes"),
            tracer.counted("run", "server.tokens"),
        ),
        "server.quanta_per_query": _ratio(quanta, http_queries),
        "server.shed_responses": delta("shed"),
        "resilience.retries": delta("job_retries"),
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_pct": 100 * _ratio(
            traced_ms - untraced_ms, untraced_ms
        ),
    }
    for field in ("elements_scanned", "pointer_jumps", "comparisons",
                  "getnext_calls", "intermediate_tuples", "flushes"):
        values[f"algorithms.{field}"] = counted(f"algorithms.{field}")
    for action in ("NOOP", "SHIFT", "SPLICE", "REBUILD", "DROP"):
        values[f"maintenance.repair_actions.{action}"] = _ratio(
            traced.repair_actions.get(action, 0), commits
        )
    return {name: values[name] for name in PER_LAYER}


def _lane_split(tracer, workload) -> tuple[float, float]:
    """Split light-query HTTP request time into lane wait and framing.

    For each light request span (client side), its own quantum is the
    light quantum that ran inside it; lane wait is the time heavy quanta
    held the single engine lane between the send and that quantum's
    start; framing is what remains after the quantum and the wait.
    """
    spans = tracer.spans_in("run")
    requests = [s for s in spans if s[0] == "http.light_request"]
    if not requests:
        return 0.0, 0.0
    light_text = workload.canonical["light"]
    quanta = sorted(
        (s[2], s[3], s[8]["query"] == light_text)
        for s in spans if s[0] == "server.quantum" and s[8]
    )
    starts = [q[0] for q in quanta]
    heavy = [(q[0], q[1]) for q in quanta if not q[2]]
    heavy_starts = [h[0] for h in heavy]
    wait_total = framing_total = 0.0
    for __, __, sent, done, *__ in requests:
        own = None
        for index in range(bisect.bisect_left(starts, sent), len(quanta)):
            if quanta[index][0] >= done:
                break
            if quanta[index][2]:
                own = quanta[index]
                break
        if own is None:
            continue
        wait = 0.0
        first = max(0, bisect.bisect_left(heavy_starts, sent) - 1)
        for begin, end in heavy[first:]:
            if begin >= own[0]:
                break
            wait += max(0.0, min(end, own[0]) - max(begin, sent))
        wait_total += wait
        framing_total += (done - sent) - (own[1] - own[0]) - wait
    return wait_total, framing_total
