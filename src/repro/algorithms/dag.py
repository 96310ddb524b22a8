"""The intermediate-solution DAG ``F`` (paper Section IV-B, feature 2).

ViewJoin (and our TwigStack variants, for a like-for-like memory comparison)
accumulate solution nodes in a per-partition buffer keyed by query-node tag.
Nodes arrive in document order and are kept sorted; per-tag stacks of
currently-open regions answer the "has a *p*-type ancestor in F" checks of
the ``get_next`` function in amortized O(1).

When a new root-tag solution starts after the current partition root's end,
the partition is **flushed**: the buffer is extended to cover the query
tags outside Q' (via the views' materialized pointers or binary search) and
matches are enumerated with exact pc/ad checks.

Two flush targets implement the paper's two output approaches:

* **memory-based** — matches accumulate in an in-memory list;
* **disk-based** — each partition's candidate lists are serialized to a
  spill page file and read back (through a counting pager) before
  enumeration, modelling the paper's output-then-reread variant; peak
  in-memory buffer size is correspondingly bounded by one partition.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Mapping, Sequence

from repro.algorithms.base import Counters, Match
from repro.errors import EvaluationError
from repro.storage.lists import StoredList
from repro.storage.pager import Pager
from repro.storage.records import ElementEntry, element_codec
from repro.tpq.enumeration import count_matches, iter_matches
from repro.tpq.pattern import Pattern


class DagBuffer:
    """Per-partition buffer of candidate solution nodes.

    Args:
        query: the query pattern (flush enumerates its matches).
        counters: run counters (candidate adds are attributed here).
        emit_matches: keep output tuples (True) or only count them.
        spill_pager: when given, partitions are spilled to this pager and
            read back before enumeration (the disk-based approach).
        sink: when given, each flushed partition's matches are pushed to
            this callback instead of accumulating in ``matches`` — the
            streaming output path for results larger than memory.
    """

    def __init__(
        self,
        query: Pattern,
        counters: Counters,
        emit_matches: bool = True,
        spill_pager: Pager | None = None,
        sink: Callable[[list[Match]], None] | None = None,
    ):
        self.query = query
        self.counters = counters
        self.emit_matches = emit_matches
        self.spill_pager = spill_pager
        self.sink = sink
        self.matches: list[Match] = []
        self.match_count = 0
        self.output_seconds = 0.0
        self._partition_end: int | None = None
        self.peak_entries = 0
        self._size = 0
        self._lists: dict[str, list] = {}
        self._starts: dict[str, list[int]] = {}
        self._prefix_max_end: dict[str, list[int]] = {}
        self._entry_bytes = element_codec().width

    # -- building ------------------------------------------------------------

    @property
    def partition_root(self) -> int | None:
        """End label of the open partition's root (None when closed).

        Only the end label is retained: the engines need the root solely
        to bound the partition, and buffering the record itself would
        allocate once per partition on the hot admission path.
        """
        return self._partition_end

    def set_partition_root(self, entry) -> None:
        """Open a partition rooted at ``entry`` — anything carrying an
        ``end`` label works (a record object or a raw-column cursor)."""
        self._partition_end = entry.end

    @property
    def partition_end(self) -> int:
        assert self._partition_end is not None
        return self._partition_end

    def add(self, tag: str, entry) -> None:
        """Admit a candidate solution node for query node ``tag``.

        Entries are stored as-is (linked-element records keep their
        pointers, which the flush-time extension step dereferences).  Nodes
        must arrive in non-decreasing document order per tag; duplicates
        (same start) are ignored.
        """
        bucket = self._lists.setdefault(tag, [])
        if bucket and bucket[-1].start >= entry.start:
            if bucket[-1].start == entry.start:
                return
            raise EvaluationError(
                f"candidates for {tag!r} must arrive in document order"
            )
        bucket.append(entry)
        self.counters.candidates_added += 1
        self._size += 1
        starts = self._starts.setdefault(tag, [])
        prefix = self._prefix_max_end.setdefault(tag, [])
        starts.append(entry.start)
        prefix.append(
            entry.end if not prefix else max(prefix[-1], entry.end)
        )
        if self._size > self.peak_entries:
            self.peak_entries = self._size

    def has_open_ancestor(self, tag: str, entry) -> bool:
        """True iff some buffered ``tag``-node's region contains ``entry``."""
        return self.open_ancestor(tag, entry.start, entry.end)

    def open_ancestor(self, tag: str, start: int, end: int) -> bool:
        """True iff some buffered ``tag`` region contains ``(start, end)``.

        Implements get_next's "has a p-type ancestor in F" test on raw
        labels (the columnar fast path passes cursor ints directly).  A
        buffered candidate contains the region iff its start precedes
        ``start`` and its end exceeds ``end`` (regions nest or are
        disjoint), so the check reduces to a prefix-max-of-ends lookup —
        exact and non-destructive, unlike a shared pop-on-read stack, which
        would be order-sensitive when several consumers probe the same tag.
        """
        starts = self._starts.get(tag)
        if not starts:
            return False
        pos = bisect_left(starts, start)
        if pos == 0:
            return False
        return self._prefix_max_end[tag][pos - 1] > end

    def innermost_container(self, tag: str, entry):
        """The buffered ``tag`` candidate with the largest start whose
        region contains ``entry``, or None."""
        return self.innermost_container_at(tag, entry.start, entry.end)

    def innermost_container_at(self, tag: str, start: int, end: int):
        """The buffered ``tag`` candidate with the largest start whose
        region contains ``(start, end)``, or None.

        Containers of a node form a nested chain, so the innermost one has
        the maximal level among them — which makes this the primitive for
        exact parent-child admission (a direct parent exists iff the
        innermost container sits exactly one level above the entry).
        """
        starts = self._starts.get(tag)
        if not starts:
            return None
        bucket = self._lists[tag]
        prefix = self._prefix_max_end[tag]
        position = bisect_left(starts, start) - 1
        while position >= 0:
            if prefix[position] <= start:
                return None  # nothing further left can reach this entry
            candidate = bucket[position]
            if candidate.end > end:
                return candidate
            position -= 1
        return None

    def max_buffered_end(self, tag: str) -> int:
        """Largest end label among buffered ``tag`` candidates (-1 if none).

        Used as a conservative guard before pointer-based cursor jumps: a
        jump over unread entries is only safe when no buffered candidate
        region could still contain them.
        """
        prefix = self._prefix_max_end.get(tag)
        return prefix[-1] if prefix else -1

    def last_added(self, tag: str):
        bucket = self._lists.get(tag)
        return bucket[-1] if bucket else None

    def candidates(self, tag: str) -> Sequence:
        return self._lists.get(tag, ())

    @property
    def buffered_entries(self) -> int:
        return self._size

    @property
    def peak_bytes(self) -> int:
        return self.peak_entries * self._entry_bytes

    # -- suspend / resume --------------------------------------------------------

    def save_state(self) -> tuple[int | None, dict[str, list]]:
        """Snapshot the open partition: ``(partition_end, per-tag lists)``.

        The derived search structures (start columns, prefix-max ends)
        are recomputed on restore rather than serialized — they are a
        pure function of the entry lists.
        """
        return self._partition_end, {
            tag: list(entries) for tag, entries in self._lists.items()
        }

    def restore_state(
        self,
        partition_end: int | None,
        lists: Mapping[str, list],
        match_count: int,
        peak_entries: int,
        output_seconds: float,
    ) -> None:
        """Rebuild a suspended partition, accounting-free.

        Entries re-enter the buffer without passing through :meth:`add`:
        their admissions were counted when they first arrived, and the
        snapshot's counters already carry that work.  Cumulative output
        totals (``match_count``, peak sizes, output time) are restored
        so the resumed run's final result equals the uninterrupted one.
        """
        self._reset()
        self._partition_end = partition_end
        for tag, entries in lists.items():
            if not entries:
                continue
            bucket = list(entries)
            starts = [entry.start for entry in bucket]
            if any(
                starts[i] >= starts[i + 1] for i in range(len(starts) - 1)
            ):
                raise EvaluationError(
                    f"restored candidates for {tag!r} are not in document"
                    " order"
                )
            prefix: list[int] = []
            for entry in bucket:
                prefix.append(
                    entry.end if not prefix else max(prefix[-1], entry.end)
                )
            self._lists[tag] = bucket
            self._starts[tag] = starts
            self._prefix_max_end[tag] = prefix
            self._size += len(bucket)
        self.match_count = match_count
        self.peak_entries = max(peak_entries, self._size)
        self.output_seconds = output_seconds

    # -- flushing ---------------------------------------------------------------

    def flush(
        self,
        extend: Callable[[Mapping[str, list]],
                         Mapping[str, Sequence[ElementEntry]]] | None = None,
    ) -> None:
        """Close the current partition: extend, enumerate, reset.

        Args:
            extend: callback receiving the buffered per-tag candidate lists
                and returning element-record lists for the query tags the
                buffer does not cover (it fetches the tags outside Q' via
                view pointers).  When None the buffered lists must already
                cover every query tag.
        """
        if self.partition_root is None:
            self._reset()
            return
        begin = time.perf_counter()
        self.counters.flushes += 1
        # Buffered linked records are projected to bare element labels
        # once per candidate, so match tuples need no per-component
        # conversion; the extension step already returns element records
        # built straight from the packed columns.
        candidates: dict[str, Sequence[ElementEntry]] = {
            tag: _elements(self._lists.get(tag, ()))
            for tag in self.query.tags()
        }
        if extend is not None:
            candidates.update(extend(self._lists))
        if self.spill_pager is not None:
            candidates = self._spill_and_reload(candidates)
        if self.sink is None and not self.emit_matches:
            # Count-only: nothing would keep the tuples.
            found: list[Match] = []
            count = count_matches(self.query, candidates)
        else:
            # Every list is in document order, so the enumeration comes
            # out in tuple-of-starts order, the order consumers expect.
            found = list(iter_matches(self.query, candidates))
            count = len(found)
        self.match_count += count
        self.counters.matches += count
        if self.sink is not None:
            self.sink(found)
        elif self.emit_matches:
            self.matches.extend(found)
        self.output_seconds += time.perf_counter() - begin
        self._reset()

    def _reset(self) -> None:
        self._lists = {}
        self._starts = {}
        self._prefix_max_end = {}
        self._size = 0
        self._partition_end = None

    def _spill_and_reload(
        self, candidates: Mapping[str, Sequence[ElementEntry]]
    ) -> dict[str, list[ElementEntry]]:
        """Write candidate lists to the spill file and read them back.

        Models the disk-based approach's extra I/O: the partition's portion
        of F is written out and re-read before match computation.
        """
        assert self.spill_pager is not None
        reloaded: dict[str, list[ElementEntry]] = {}
        for tag in self.query.tags():
            entries = candidates.get(tag, ())
            stored = StoredList(
                self.spill_pager, element_codec(), name=f"spill:{tag}",
                columnar=False,  # written once, scanned once: no reuse
            )
            stored.extend(entries)  # element records (see flush)
            stored.finalize()
            reloaded[tag] = list(stored.scan())
        return reloaded


def _elements(entries: Sequence) -> Sequence[ElementEntry]:
    """``entries`` as element records (lists are one record kind)."""
    if not entries or isinstance(entries[0], ElementEntry):
        return entries
    return [entry.element for entry in entries]
