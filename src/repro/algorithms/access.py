"""Uniform per-tag access to materialized views for the join algorithms.

TwigStack and ViewJoin consume one document-ordered list per query tag; the
list lives in whichever view of the covering set contains that tag, stored
in the element or linked-element scheme.  :class:`TagSource` hides the
scheme differences:

* ``has_pointers`` — whether records carry materialized pointers;
* ``child_slot`` — position of a child-tag pointer inside this tag's
  records (linked schemes only);
* ``bisect_start`` — pager-accounted binary search by start label, the
  fallback access path when pointers are absent (element scheme) or not
  materialized (LE_p);
* ``fetch_regions`` — the entries inside a set of regions as element
  records, plus the child pointers a further extension step follows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Sequence

from repro.algorithms.base import Counters, CountingCursor, element_of
from repro.errors import EvaluationError
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.lists import StoredList
from repro.storage.records import ElementEntry
from repro.tpq.pattern import Pattern


class TagSource:
    """The stored list for one query tag plus its scheme capabilities."""

    def __init__(self, view, tag: str):
        if isinstance(view, LinkedElementView):
            self.has_pointers = True
        elif isinstance(view, ElementView):
            self.has_pointers = False
        else:
            raise EvaluationError(
                f"unsupported view type {type(view).__name__} for per-tag"
                " access (tuple views are only consumed by InterJoin)"
            )
        self.view = view
        self.tag = tag
        self.stored: StoredList = view.list_for(tag)
        self.index = None

    def __len__(self) -> int:
        return len(self.stored)

    def ensure_index(self) -> None:
        """Build a B+-tree over this list's start labels (idempotent).

        Models the indexed-structural-join substrate of the paper's
        related work (XR-/XB-trees): ``bisect_start`` then descends the
        index in O(height) page touches instead of probing data pages.
        The key sequence comes straight from the packed start column when
        the list carries one; only column-less lists pay a decoding scan.
        """
        if self.index is not None:
            return
        from repro.storage.btree import BPlusTreeIndex

        columns = self.stored.columns
        if columns is not None:
            starts = list(columns.starts)
        else:
            starts = [entry.start for entry in self.stored.scan()]
        self.index = BPlusTreeIndex.build(
            self.view.pager, starts, name=f"idx:{self.tag}"
        )

    def cursor(self, counters: Counters) -> CountingCursor:
        return CountingCursor(self.stored.cursor(), counters)

    def child_slot(self, child_tag: str) -> int | None:
        """Pointer slot for ``child_tag`` inside this tag's records, if the
        view materializes one (i.e. ``child_tag`` is this tag's child in the
        view pattern and the scheme is linked)."""
        if not self.has_pointers:
            return None
        order = self.view.child_tag_order.get(self.tag, ())
        try:
            return order.index(child_tag)
        except ValueError:
            return None

    def read(self, index: int, counters: Counters):
        """Random-access read (counted as a pointer jump target access)."""
        counters.elements_scanned += 1
        return self.stored.read(index)

    def bisect_start(self, value: int, counters: Counters) -> int:
        """Index of the first entry with ``start > value``.

        With an attached B+-tree this is one root-to-leaf descent;
        otherwise a binary search through the pager — every probed entry
        counts as a comparison so the element scheme pays for what
        pointers avoid.  With packed columns each probe compares a raw int
        from the start column (the page touch is mirrored for identical
        I/O accounting); without them it decodes through the pool.
        """
        if self.index is not None:
            counters.comparisons += max(self.index.height, 1)
            found = self.index.first_greater(value)
            return len(self.stored) if found is None else found
        stored = self.stored
        lo, hi = 0, len(stored)
        columns = stored.columns
        if columns is not None:
            starts = columns.starts
            touch_index = stored.touch_index
            while lo < hi:
                mid = (lo + hi) // 2
                counters.comparisons += 1
                touch_index(mid)
                if starts[mid] <= value:
                    lo = mid + 1
                else:
                    hi = mid
            return lo
        while lo < hi:
            mid = (lo + hi) // 2
            counters.comparisons += 1
            # Reference fallback when packed columns are absent
            # (REPRO_COLUMNAR=0): pool-served decode is the point here.
            if stored.read(mid).start <= value:  # repro-lint: disable=RL101 (reference path)
                lo = mid + 1
            else:
                hi = mid
        return lo

    def collect_from(self, index: int, bound: int, counters: Counters) -> int:
        """Scan forward from ``index`` while ``start < bound``; return the
        index of the first entry not collected.

        The accounting kernel of :meth:`fetch_regions` (packed columns
        only): the scan is charged as if it probed entry by entry — every
        probed entry, including the one that ends the scan, costs one
        page access and one comparison, and every collected entry counts
        as scanned — but the stop is found by bisecting the start column
        and the page accesses are accounted one per-page run at a time.
        """
        stored = self.stored
        total = len(stored)
        stop = bisect_left(stored.columns.starts, bound, index, total)
        probed = stop - index + (stop < total)
        counters.comparisons += probed
        counters.elements_scanned += stop - index
        stored.touch_range(index, index + probed)
        return stop

    def fetch_regions(
        self,
        parents: Sequence,
        pointers: Sequence[int] | None,
        counters: Counters,
        slots: Sequence[int] = (),
    ) -> tuple[list[ElementEntry], list[list[int]]]:
        """All entries inside the outermost of the ``parents`` regions.

        Each region is located through the parent's child pointer into
        this list (``pointers``, aligned with ``parents``; a null pointer
        means no entry lies inside) or, when ``pointers`` is None, by
        :meth:`bisect_start`, then scanned forward to the region's end.
        Regions nested in an earlier one are skipped: their entries were
        already collected.

        Returns the entries as element records, with one column per
        pointer slot in ``slots`` holding each entry's child pointer.
        With packed columns the scans are accounted by
        :meth:`collect_from` and both come straight from the columns;
        without them every probe decodes through the pool.
        """
        stored = self.stored
        columns = stored.columns
        total = len(stored)
        spans: list[tuple[int, int]] = []
        records: list = []
        last_end = -1
        for position, parent in enumerate(parents):
            if parent.start < last_end:
                continue
            last_end = parent.end
            if pointers is None:
                index = self.bisect_start(parent.start, counters)
            else:
                index = pointers[position]
                if index < 0:
                    continue
                counters.pointer_jumps += 1
            if columns is not None:
                spans.append(
                    (index, self.collect_from(index, parent.end, counters))
                )
                continue
            while index < total:
                entry = stored.read(index)
                counters.comparisons += 1
                if entry.start >= parent.end:
                    break
                records.append(entry)
                counters.elements_scanned += 1
                index += 1
        if columns is None:
            return [element_of(entry) for entry in records], [
                [entry.children[slot] for entry in records]
                for slot in slots
            ]
        indexes = [i for lo, hi in spans for i in range(lo, hi)]
        entries = list(map(
            ElementEntry,
            map(columns.starts.__getitem__, indexes),
            map(columns.ends.__getitem__, indexes),
            map(columns.levels.__getitem__, indexes),
        ))
        return entries, [
            list(map(columns.children[slot].__getitem__, indexes))
            for slot in slots
        ]

    def range_entries(
        self, start: int, end: int, counters: Counters
    ) -> list[ElementEntry]:
        """All entries with start label inside the open interval
        ``(start, end)``, via binary search + forward scan."""
        return self.fetch_regions(
            [ElementEntry(start, end, 0)], None, counters
        )[0]


def build_sources(
    query: Pattern,
    views: Sequence,
    view_patterns: Sequence[Pattern],
    use_index: bool = False,
) -> dict[str, TagSource]:
    """Map each query tag to its :class:`TagSource`.

    Args:
        query: the query pattern.
        views: materialized views, aligned with ``view_patterns``.
        view_patterns: the covering view patterns (tag-disjoint).
        use_index: attach a B+-tree to every per-tag list, accelerating
            the binary-search access path (paper §VII's indexed joins).
    """
    sources: dict[str, TagSource] = {}
    for pattern, view in zip(view_patterns, views):
        # Preorder, not tag_set(): source construction order decides
        # index build order and therefore page-touch order.
        for tag in pattern.tags():
            if query.has_tag(tag):
                source = TagSource(view, tag)
                if use_index:
                    source.ensure_index()
                sources[tag] = source
    missing = [tag for tag in query.tags() if tag not in sources]
    if missing:
        raise EvaluationError(
            f"no materialized view supplies query tags {missing}"
        )
    return sources


def total_input_entries(sources: Mapping[str, TagSource]) -> int:
    return sum(len(source) for source in sources.values())
